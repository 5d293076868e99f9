"""Experiment configs: INI-style sections, strict schema, full-default echo."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .model import ModelConfig, Potential, cap_width, laplacian_stencil
from .util import SEED


class ConfigError(ValueError):
    """Schema violation: unknown section/key, bad value, broken precondition."""


_MODEL_KEYS = {
    "dim": (int, 1),
    "potential": (str, "none"),
    "amplitude": (float, 0.5),
    "mu": (float, 0.5),
}

_NUMERICS_KEYS = {
    "seed": (int, SEED),
    "convergence_tol": (float, 1e-3),
    "eps_k_max": (int, 20),
}

_OUTPUT_KEYS = {
    "directory": (str, "out"),
}

_SHARED_SECTIONS = {"model": _MODEL_KEYS, "numerics": _NUMERICS_KEYS, "output": _OUTPUT_KEYS}

_FLOAT_LIST = "float_list"
_INT_LIST = "int_list"

# the kernel point, bumps, h list and slope gates that wf and prop31 share
_KERNEL_POINT_KEYS = {
    "lambda": (float, 1.0), "x1": (float, None), "xi1": (float, None),
    "x2": (float, None), "xi2": (float, None),
    "delta1": (float, 0.2), "delta2": (float, 0.2),
    "h_list": (_FLOAT_LIST, (0.125, 0.0625, 0.03125, 0.015625)),
    "expect": (str, "decay"),
    "criterion_slope": (float, None), "criterion_max_slope": (float, None),
}

_PROBE_KEYS = {
    "wf": {**_KERNEL_POINT_KEYS, "criterion_residual": (float, None)},
    "ik": {
        "lambda": (float, 1.0), "weight_n": (float, 1.0), "l_list": (_INT_LIST, (128, 256, 512)),
        "criterion_factor": (float, 1.2),
    },
    "one-sided": {
        "lambda": (float, 1.0), "sign": (int, 1), "nu": (float, 3.0), "s": (float, 1.0),
        "l_list": (_INT_LIST, (128, 256, 512)),
        "criterion_factor": (float, 1.2),
    },
    "local-decay": {
        "lambda": (float, 1.0), "nu": (float, 3.0), "eps_f": (float, 0.25),
        "t_min": (float, 10.0), "t_max": (float, 200.0), "n_t": (int, 16),
        "box_radius": (int, 512), "criterion_kappa": (float, None),
    },
    "prop31": {**_KERNEL_POINT_KEYS, "eps_f": (float, 0.25)},
    "escape": {
        "x2": (float, 1.2), "xi2": (float, 1.5707963267948966),
        "delta1": (float, 0.333333333333333), "delta2": (float, 0.28), "h": (float, 0.125),
        "depth": (int, 0), "mu": (float, 1.0),
        "t_samples": (_FLOAT_LIST, (0.5, 2.0, 8.0)),
        "h_list": (_FLOAT_LIST, (0.25, 0.125, 0.0625)),
        "box_radius": (int, 48),
        "mono_t_list": (_FLOAT_LIST, (1.0, 5.0, 20.0)),
        "mono_box_radius": (int, 64),
        "criterion_exponent": (float, None),
    },
    "free-kernel": {
        "lambda": (float, 1.0), "box_radius": (int, 256),
        "criterion_rel_error": (float, 1e-3), "inner_frac": (float, 0.5),
    },
    "calculus": {
        "lambda": (float, 1.0),
    },
}


def _finite(raw):
    """float(raw), refusing nan and +-inf: no config value is meant to be non-finite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_value(kind, raw, key):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        if kind is str:
            return str(raw).strip()
        if kind == _FLOAT_LIST:
            return tuple(_finite(v) for v in str(raw).split(",") if v.strip())
        if kind == _INT_LIST:
            return tuple(int(v) for v in str(raw).split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigError(f"unhandled kind for {key}")


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    probe_kind: str
    model: dict
    probe: dict
    numerics: dict
    output: dict

    def resolved(self) -> dict:
        """Fully-defaulted echo; a manifest built from this reproduces the run."""
        return {
            "model": dict(self.model),
            "probe": {"kind": self.probe_kind, **self.probe},
            "numerics": dict(self.numerics),
            "output": dict(self.output),
        }

    def model_config(self) -> ModelConfig:
        """The [model] block as a ModelConfig; Stencil and Potential raise
        ValueError on a bad dim, form or mu."""
        m = self.model
        return ModelConfig(stencil=laplacian_stencil(m["dim"]),
                           potential=Potential(mu=m["mu"], amplitude=m["amplitude"],
                                               form=m["potential"]))


def _read_section(cp, name, schema):
    out = {}
    present = cp[name] if cp.has_section(name) else {}
    for key in present:
        if key not in schema:
            raise ConfigError(f"unknown key [{name}] {key}")
    for key, (kind, default) in schema.items():
        if key in present:
            out[key] = _parse_value(kind, present[key], f"[{name}] {key}")
        else:
            out[key] = default
    return out


def _override_section(sections: dict, name: str) -> str:
    """The section of the override `[section.]key`: the one named, or the
    one section whose schema holds a bare key."""
    section, _, key = name.rpartition(".")
    owners = [section] if section else [s for s, keys in sections.items() if key in keys]
    if len(owners) > 1:
        raise ConfigError(f"{key} is a key of [{'] and ['.join(owners)}]: write section.{key}")
    if not owners or key not in sections.get(owners[0], {}):
        raise ConfigError(f"unknown key {name}")
    return owners[0]


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config; `overrides` maps `[section.]key` to a raw
    value that replaces the text's, checked against the probe kind's schema."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparsable config: {exc}") from exc
    for sec in cp.sections():
        if sec not in ("probe", *_SHARED_SECTIONS):
            raise ConfigError(f"unknown section [{sec}]")
    if not cp.has_section("probe"):
        raise ConfigError("missing [probe] section")
    kind = cp["probe"].get("kind", "").strip()
    if not kind:
        raise ConfigError("empty probe block: [probe] kind is required")
    if kind not in _PROBE_KEYS:
        raise ConfigError(f"unknown probe kind {kind!r}")
    sections = {"probe": _PROBE_KEYS[kind], **_SHARED_SECTIONS}
    for name, raw in (overrides or {}).items():
        cp.read_dict({_override_section(sections, name): {name.rpartition(".")[2]: raw}})
    probe = _read_section(cp, "probe", {"kind": (str, kind), **_PROBE_KEYS[kind]})
    del probe["kind"]
    model = _read_section(cp, "model", _MODEL_KEYS)
    numerics = _read_section(cp, "numerics", _NUMERICS_KEYS)
    output = _read_section(cp, "output", _OUTPUT_KEYS)
    cfg = ExperimentConfig(probe_kind=kind, model=model, probe=probe,
                           numerics=numerics, output=output)
    _validate_preconditions(cfg)
    return cfg


def _validate_preconditions(cfg: ExperimentConfig):
    try:
        cfg.model_config()
    except ValueError as exc:
        raise ConfigError(f"bad [model] block: {exc}") from exc
    p = cfg.probe
    k = cfg.probe_kind
    # bump radii and boxes: checked here, or a later check fails with the wrong cause
    for key in ("delta1", "delta2", "box_radius", "mono_box_radius"):
        if key in p and not p[key] > 0:
            raise ConfigError(f"[probe] {key} must be positive")
    if k == "one-sided":
        if not p["nu"] > 1.0:
            raise ConfigError("one-sided probe needs nu > 1")
        if not 0.0 < p["s"] < p["nu"] - 1.0:
            raise ConfigError("one-sided probe needs 0 < s < nu - 1")
        if p["sign"] not in (1, -1):
            raise ConfigError("sign must be 1 or -1")
    if k in ("ik", "one-sided") and not len(set(p["l_list"])) == len(p["l_list"]) >= 2:
        raise ConfigError(f"the {k} probe compares boxes: l_list needs at least 2 "
                          "distinct radii, none repeated")
    if k in ("wf", "prop31"):
        for key in ("x1", "xi1", "x2", "xi2"):
            if p[key] is None:
                raise ConfigError(f"[probe] {key} is required for {k}")
        if not len(set(p["h_list"])) == len(p["h_list"]) >= 4:
            raise ConfigError(f"the {k} probe fits a slope over h: h_list needs at least 4 "
                              "distinct values, none repeated")
        if p["expect"] not in ("decay", "control"):
            raise ConfigError("expect must be decay or control")
    if k in ("wf", "ik", "one-sided", "prop31", "escape", "free-kernel") and cfg.model["dim"] != 1:
        raise ConfigError(f"the {k} probe is implemented for dim = 1 only")
    if k == "calculus" and cfg.model["dim"] > 2:
        raise ConfigError("the calculus probe's boxes (radius 64 and 48) are sized for "
                          "dim <= 2")
    if k == "free-kernel":
        if cfg.model["potential"] != "none":
            raise ConfigError("free-kernel probe compares with the closed-form free kernel: "
                              "it needs potential = none")
        if not 0.0 < p["lambda"] < 2.0:
            raise ConfigError("free-kernel compares with the closed-form free kernel, "
                              "which exists inside the band only: need 0 < lambda < 2")
        L = p["box_radius"]
        if not 0.0 <= p["inner_frac"] * L <= L - cap_width(L):
            raise ConfigError(f"free-kernel compares |n| <= inner_frac * L outside the CAP: "
                              f"need 0 <= inner_frac * {L} <= {L - cap_width(L)}")
    if k == "escape":
        # depth < 0 leaves no rung, so no transport criterion: a vacuous pass
        if p["depth"] < 0:
            raise ConfigError("[probe] depth must be >= 0")
        # at mu <= 0 the rungs j >= 1 vanish or change sign: a vacuous pass or a false fail
        if not p["mu"] > 0:
            raise ConfigError("[probe] mu must be positive")
        # the energy exponent is a fit over h
        for key, least in (("t_samples", 1), ("mono_t_list", 1), ("h_list", 2)):
            if len(set(p[key])) < least:
                raise ConfigError(f"[probe] {key} needs at least {least} distinct value(s)")
        # the transport and monotonicity checks are statements about t >= 0
        for key in ("t_samples", "mono_t_list"):
            if min(p[key]) < 0:
                raise ConfigError(f"[probe] {key} needs times t >= 0")
    if k == "local-decay":
        if not 0 < p["t_min"] < p["t_max"]:
            raise ConfigError("need 0 < t_min < t_max")
        if p["n_t"] < 8:
            raise ConfigError("n_t >= 8 required for the tail fit")
    # numpy seeds its generators with non-negative integers only
    if cfg.numerics["seed"] < 0:
        raise ConfigError("[numerics] seed must be >= 0")
    if not 0.0 < cfg.numerics["convergence_tol"] < 1.0:
        raise ConfigError("convergence_tol must lie in (0, 1)")
    if cfg.numerics["eps_k_max"] <= 3:
        raise ConfigError("eps_k_max must be above 3, the first rung's exponent")
