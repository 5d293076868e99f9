"""Experiment configs: INI-style sections, strict schema, full-default echo."""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .model import ModelConfig, Potential, laplacian_stencil
from .util import SEED


class ConfigError(ValueError):
    """Schema violation: unknown section/key, bad value, broken precondition."""


_MODEL_KEYS = {
    "dim": (int, 1),
    "stencil": (str, "laplacian"),
    "potential": (str, "none"),
    "amplitude": (float, 0.5),
    "mu": (float, 0.5),
    "cap_width_frac": (float, 0.125),
    "cap_strength": (float, 1.0),
    "box_radius": (int, None),
}

_NUMERICS_KEYS = {
    "seed": (int, SEED),
    "norm_tol": (float, 1e-2),
    "convergence_tol": (float, 1e-3),
    "eps_k_min": (int, 3),
    "eps_k_max": (int, 20),
    "classify_grid": (int, 4096),
}

_OUTPUT_KEYS = {
    "directory": (str, "out"),
    "formats": (str, "csv,json"),
}

_FLOAT_LIST = "float_list"
_INT_LIST = "int_list"

_PROBE_KEYS = {
    "wf": {
        "lambda": (float, 1.0), "x1": (float, None), "xi1": (float, None),
        "x2": (float, None), "xi2": (float, None),
        "delta1": (float, 0.2), "delta2": (float, 0.2),
        "h_list": (_FLOAT_LIST, (0.125, 0.0625, 0.03125, 0.015625)),
        "expect": (str, "decay"),
        "criterion_slope": (float, None), "criterion_residual": (float, None),
        "criterion_max_slope": (float, None),
    },
    "ik": {
        "lambda": (float, 1.0), "gamma_minus": (float, -0.3), "gamma_plus": (float, 0.3),
        "weight_n": (float, 1.0), "l_list": (_INT_LIST, (128, 256, 512)),
        "criterion_factor": (float, 1.2),
    },
    "one-sided": {
        "lambda": (float, 1.0), "sign": (int, 1), "gamma": (float, -0.4),
        "nu": (float, 3.0), "s": (float, 1.0), "l_list": (_INT_LIST, (128, 256, 512)),
        "criterion_factor": (float, 1.2),
    },
    "local-decay": {
        "lambda": (float, 1.0), "nu": (float, 3.0), "eps_f": (float, 0.25),
        "t_min": (float, 10.0), "t_max": (float, 200.0), "n_t": (int, 16),
        "criterion_kappa": (float, None),
    },
    "prop31": {
        "lambda": (float, 1.0), "x1": (float, None), "xi1": (float, None),
        "x2": (float, None), "xi2": (float, None),
        "delta1": (float, 0.2), "delta2": (float, 0.2), "eps_f": (float, 0.25),
        "h_list": (_FLOAT_LIST, (0.125, 0.0625, 0.03125, 0.015625)),
        "expect": (str, "decay"),
        "criterion_slope": (float, None), "criterion_max_slope": (float, None),
    },
    "escape": {
        "x2": (float, 1.2), "xi2": (float, 1.5707963267948966),
        "delta1": (float, 0.333333333333333), "delta2": (float, 0.28), "h": (float, 0.125),
        "depth": (int, 0), "mu": (float, 1.0),
        "t_samples": (_FLOAT_LIST, (0.5, 2.0, 8.0)),
        "n_target": (float, 1.0),
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


def _parse_value(kind, raw, key):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return str(raw).strip()
        if kind == _FLOAT_LIST:
            return tuple(float(v) for v in str(raw).split(",") if v.strip())
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
        m = self.model
        if m["stencil"] != "laplacian":
            raise ConfigError(f"unknown stencil preset {m['stencil']!r}")
        stencil = laplacian_stencil(m["dim"])
        form = m["potential"]
        if form == "none":
            pot = Potential()
        elif form in ("power_law", "dipole"):
            pot = Potential(mu=m["mu"], amplitude=m["amplitude"], form=form)
        else:
            raise ConfigError(f"unknown potential form {form!r}")
        return ModelConfig(stencil=stencil, potential=pot,
                           cap_width_frac=m["cap_width_frac"],
                           cap_strength=m["cap_strength"])


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


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparsable config: {exc}") from exc
    known = {"model", "probe", "numerics", "output"}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"unknown section [{sec}]")
    if not cp.has_section("probe"):
        raise ConfigError("missing [probe] section")
    probe_raw = cp["probe"]
    kind = probe_raw.get("kind", "").strip()
    if not kind:
        raise ConfigError("empty probe block: [probe] kind is required")
    if kind not in _PROBE_KEYS:
        raise ConfigError(f"unknown probe kind {kind!r}")
    schema = dict(_PROBE_KEYS[kind])
    for key in probe_raw:
        if key != "kind" and key not in schema:
            raise ConfigError(f"unknown key [probe] {key} for kind {kind!r}")
    probe = {}
    for key, (pkind, default) in schema.items():
        if key in probe_raw:
            probe[key] = _parse_value(pkind, probe_raw[key], f"[probe] {key}")
        else:
            probe[key] = default
    model = _read_section(cp, "model", _MODEL_KEYS)
    numerics = _read_section(cp, "numerics", _NUMERICS_KEYS)
    output = _read_section(cp, "output", _OUTPUT_KEYS)
    cfg = ExperimentConfig(probe_kind=kind, model=model, probe=probe,
                           numerics=numerics, output=output)
    _validate_preconditions(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate_preconditions(cfg: ExperimentConfig):
    p = cfg.probe
    k = cfg.probe_kind
    if k == "one-sided":
        if not p["nu"] > 1.0:
            raise ConfigError("one-sided probe needs nu > 1")
        if not 0.0 < p["s"] < p["nu"] - 1.0:
            raise ConfigError("one-sided probe needs 0 < s < nu - 1")
        if p["sign"] not in (1, -1):
            raise ConfigError("sign must be 1 or -1")
    if k == "ik" and not (-1.0 < p["gamma_minus"] < p["gamma_plus"] < 1.0):
        raise ConfigError("ik probe needs -1 < gamma_- < gamma_+ < 1")
    if k in ("wf", "prop31"):
        for key in ("x1", "xi1", "x2", "xi2"):
            if p[key] is None:
                raise ConfigError(f"[probe] {key} is required for {k}")
        if len(p["h_list"]) < 4:
            raise ConfigError("h_list needs at least 4 entries")
        if p["expect"] not in ("decay", "control"):
            raise ConfigError("expect must be decay or control")
    if k == "free-kernel" and (cfg.model["potential"] != "none" or cfg.model["dim"] != 1):
        raise ConfigError("free-kernel probe compares with the closed-form 1-d free kernel: "
                          "it needs potential = none and dim = 1")
    if k in ("prop31", "escape") and cfg.model["dim"] != 1:
        raise ConfigError(f"the {k} probe is implemented for dim = 1 only")
    if k != "local-decay" and cfg.model["box_radius"] is not None:
        raise ConfigError(f"[model] box_radius is read only by local-decay, not by {k}")
    if k == "local-decay":
        if not 0 < p["t_min"] < p["t_max"]:
            raise ConfigError("need 0 < t_min < t_max")
        if p["n_t"] < 8:
            raise ConfigError("n_t >= 8 required for the tail fit")
    if cfg.numerics["eps_k_min"] >= cfg.numerics["eps_k_max"]:
        raise ConfigError("eps_k_min must be below eps_k_max")
