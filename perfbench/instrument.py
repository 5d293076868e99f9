"""Wrappers that record spans around latscat's layers during a traced pass.

Nothing under ``src/`` is edited. ``Instrumentation`` replaces, on the
imported module and class objects, the public functions and methods of each
layer with timed wrappers, wraps the ``LinearMap`` objects that ``op_h`` and
``resolvent_map`` return, and wraps the numpy/scipy dense entry points when
latscat code calls them. Leaving the ``with`` block restores every original.

Span names (``summarize`` groups by them):

    model.matvec            LatticeHamiltonian __call__ / apply / adjoint_apply
    model.hamiltonian.build LatticeHamiltonian.__init__
    model.assemble          ModelConfig.assemble
    model.dense / .banded   LatticeHamiltonian.dense / .banded
    quantize.op_h           op_h; quantize.op_h_apply: the returned map
    quantize.operator_norm  operator_norm
    resolvent.ladder        lap_solve, resolvent_map (the epsilon walk)
    resolvent.solve         applications of the map resolvent_map returns
    resolvent.sandwich      sandwich_norm
    propagate.cheb          ChebyshevPlan.apply
    propagate.fH_plan       ChebyshevPlan.for_function
    propagate.evolution_plan ChebyshevPlan.for_evolution
    geometry.classify       classify
    escape.transport / .energy / .monotonicity
    config.parse            parse_config
    cli.run                 cli.run
    <module>.<kernel>       a numpy/scipy dense call made from latscat.<module>,
                            e.g. propagate.dense_eigh, resolvent.lu_factor
"""

from __future__ import annotations

import functools
import inspect
import sys

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from latscat import cli, config, escape, geometry, model, propagate, quantize, resolvent

_MISSING = object()

# (module, attribute, span suffix); the span is named after the calling module
DENSE_ENTRY_POINTS = (
    (np.linalg, "eigh", "dense_eigh"),
    (np.linalg, "eigvalsh", "dense_eigvalsh"),
    (np.linalg, "svd", "dense_svd"),
    (scipy.linalg, "svdvals", "dense_svd"),
    (scipy.linalg, "lu_factor", "lu_factor"),
    (scipy.linalg, "lu_solve", "lu_solve"),
    (scipy.linalg, "solve_banded", "solve_banded"),
    (scipy.linalg, "expm", "dense_expm"),
    (scipy.sparse.linalg, "gmres", "gmres"),
)


def _columns(u) -> int:
    shape = np.shape(u)
    return int(np.prod(shape[1:])) if len(shape) > 1 else 1


def _rungs(cfg, eps) -> int:
    """Rungs walked: index of the returned epsilon in the ladder, plus one."""
    return 0 if eps is None else list(cfg.epsilon_sequence).index(eps) + 1


class Instrumentation:
    """Context manager installing the span wrappers on a ``Tracer``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- bookkeeping ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    @staticmethod
    def _latscat_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "latscat" or name.startswith("latscat."))]

    def _function(self, module, fname, span, after=None, force_info=False):
        """Wrap ``module.fname`` in every latscat namespace that binds it."""
        orig = getattr(module, fname)
        traced = self.tracer.wrap(span, _forcing_return_info(orig) if force_info else orig, after)
        for mod in self._latscat_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, traced)

    def _method(self, cls, name, span, after=None):
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.tracer.wrap(span, raw.__func__, after)))
        else:
            self._set(cls, name, self.tracer.wrap(span, raw, after))

    def _entry_point(self, module, fname, suffix):
        orig = getattr(module, fname)
        tracer = self.tracer

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("latscat."):
                return orig(*args, **kwargs)
            sid = tracer.open(f"{caller[len('latscat.'):]}.{suffix}")
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(sid)

        self._set(module, fname, traced)

    def _traced_map(self, A, span):
        """A new LinearMap whose applications are recorded as ``span``."""
        return model.LinearMap(A.dim, self.tracer.wrap(span, A.apply),
                               self.tracer.wrap(span, A.adjoint_apply),
                               hermitian=A.hermitian, bandwidth=A.bandwidth, label=A.label)

    # -- the layers -------------------------------------------------------

    def install(self):
        def matvec(tr, args, kwargs, out):
            u = args[1]
            tr.count("model.matvec.cols", _columns(u))
            tr.count("model.matvec.bytes", getattr(u, "nbytes", 0) + getattr(out, "nbytes", 0))
            return out

        H = model.LatticeHamiltonian
        for name in ("__call__", "apply", "adjoint_apply"):
            self._method(H, name, "model.matvec", matvec)
        self._method(H, "__init__", "model.hamiltonian.build")
        self._method(H, "dense", "model.dense")
        self._method(H, "banded", "model.banded")
        self._method(model.ModelConfig, "assemble", "model.assemble")

        self._function(quantize, "op_h", "quantize.op_h",
                       lambda tr, a, k, out: self._traced_map(out, "quantize.op_h_apply"))

        def norm_info(tr, args, kwargs, out):
            asked, _, (sigma, info) = out
            tr.count("quantize.operator_norm.iterations", info["iterations"])
            return (sigma, info) if asked else sigma

        self._function(quantize, "operator_norm", "quantize.operator_norm", norm_info,
                       force_info=True)

        def ladder_walked(tr, cfg, eps):
            rungs = _rungs(cfg, eps)
            tr.count("resolvent.rungs", rungs)
            tr.count("resolvent.ladders_walked", rungs > 0)

        def lap_info(tr, args, kwargs, out):
            asked, bound, (u, info) = out
            ladder_walked(tr, bound.arguments["cfg"], info["epsilon"])
            return (u, info) if asked else u

        def rmap(tr, args, kwargs, out):
            R, eps = out
            cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
            ladder_walked(tr, cfg, eps)
            return self._traced_map(R, "resolvent.solve"), eps

        self._function(resolvent, "lap_solve", "resolvent.ladder", lap_info, force_info=True)
        self._function(resolvent, "resolvent_map", "resolvent.ladder", rmap)
        self._function(resolvent, "sandwich_norm", "resolvent.sandwich")

        def cheb(tr, args, kwargs, out):
            plan, u = args[0], (args[2] if len(args) > 2 else kwargs["u"])
            tr.count("propagate.cheb.terms", plan.n_terms)
            tr.count("propagate.cheb.matvec_cols", _columns(u) * max(plan.n_terms - 1, 0))
            return out

        def fh_plan(tr, args, kwargs, out):
            tr.count("propagate.fH.plans")
            tr.count("propagate.fH.terms", out.n_terms)
            return out

        plan = propagate.ChebyshevPlan
        self._method(plan, "apply", "propagate.cheb", cheb)
        self._method(plan, "for_function", "propagate.fH_plan", fh_plan)
        self._method(plan, "for_evolution", "propagate.evolution_plan")

        self._function(geometry, "classify", "geometry.classify")
        self._function(escape, "verify_transport", "escape.transport")
        self._function(escape, "energy_inequality_check", "escape.energy")
        self._function(escape, "monotonicity_check", "escape.monotonicity")
        self._function(config, "parse_config", "config.parse")
        self._function(cli, "run", "cli.run")

        for module, fname, suffix in DENSE_ENTRY_POINTS:
            self._entry_point(module, fname, suffix)


def _forcing_return_info(fn):
    """Call ``fn`` with ``return_info=True``; return (asked, bound args, result)."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        asked = bound.arguments.get("return_info", False)
        bound.arguments["return_info"] = True
        return asked, bound, fn(*bound.args, **bound.kwargs)

    return call
