"""Correctness checks on each operation's outputs.

Recipe criterion values are compared with the values measured at the
benchmark's base commit (``reference.json``, default seed only): a value
passes when ``|value - ref| <= 1e-3 * min(1, |ref|)``, i.e. 1e-3 absolute for
order-one values such as slopes and 1e-3 relative for small ones such as
relative errors and margins.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CRITERION_TOL = 1e-3
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_json(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def numeric_leaves(obj, prefix="") -> dict:
    """Flatten nested dicts/lists to {"a.b.0": number} for every numeric leaf."""
    out = {}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            out[prefix] = float(obj)
        return out
    for key, value in items:
        out.update(numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def within(value: float, ref: float, tol: float = CRITERION_TOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * min(1.0, abs(ref))


def compare_values(values: dict, reference: dict, tol: float = CRITERION_TOL) -> list:
    """Problems (empty when all agree) between measured and reference leaves."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values:
            problems.append(f"{key}: missing (reference {reference[key]!r})")
        elif key not in reference:
            problems.append(f"{key}: {values[key]!r} has no reference value")
        elif not within(values[key], reference[key], tol):
            problems.append(f"{key}: {values[key]!r} differs from reference {reference[key]!r}")
    return problems


def check_manifest(manifest: dict, reference) -> list:
    """A recipe run's problems: failed criteria, then reference mismatches.

    ``reference`` is None at seeds other than the default one, where only the
    recipe's own criteria (its gates) are checked.
    """
    problems = [f"criterion failed: {c['name']} [{c['detail']}]"
                for c in manifest["criteria"] if not c["passed"]]
    if reference is not None:
        problems += compare_values(numeric_leaves(manifest["results"]), reference)
    return problems


def check_sandwich(sigma: float, ref: float, rel_tol: float) -> list:
    if not (math.isfinite(sigma) and sigma > 0.0):
        return [f"sandwich norm {sigma!r} is not finite and positive"]
    if abs(sigma - ref) > rel_tol * ref:
        return [f"sandwich norm {sigma!r} not within {rel_tol:g} of reference {ref!r}"]
    return []


def check_residual(residual: float, tol: float) -> list:
    if not residual <= tol:
        return [f"resolvent residual {residual:.3e} above {tol:g}"]
    return []
