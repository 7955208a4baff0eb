"""Per-layer tracing of kinrelax from outside the program.

``Tracer.install`` replaces named functions with timing wrappers.  A
function is replaced in every kinrelax module that binds it, including
``from .x import y`` copies and module-level dicts such as
``cli.COMMANDS``, so a call counts whichever name it went through.
Methods are replaced on their class.  The numpy/scipy calls ``eig`` and
``expm`` are wrapped on their library module and counted only when the
calling frame belongs to kinrelax.

Each layer records calls, inclusive time and self time (inclusive minus
the time of wrapped calls made inside it), plus exceptions raised
through it per module.  A name the program no longer has is reported as
absent, with zero counts, instead of failing the run.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter

# (metric prefix, module, qualified names).  Several names under one
# prefix add up into one layer.  Modules outside kinrelax are library
# calls, counted only when kinrelax makes them.
LAYERS = (
    ("cli.resolve_config", "kinrelax.cli", ("resolve_config",)),
    ("cli.cmd_dispersion", "kinrelax.cli", ("cmd_dispersion",)),
    ("cli.cmd_build_gds", "kinrelax.cli", ("cmd_build_gds",)),
    ("cli.cmd_solve_direct", "kinrelax.cli", ("cmd_solve_direct",)),
    ("cli.cmd_compare", "kinrelax.cli", ("cmd_compare",)),
    ("cli.cmd_properties", "kinrelax.cli", ("cmd_properties",)),
    ("cli.write_csv", "kinrelax.cli", ("write_csv",)),
    ("cli.write_json", "kinrelax.cli", ("write_json",)),
    ("dispersion.c_of_xi", "kinrelax.dispersion", ("c_of_xi",)),
    ("dispersion.build_table", "kinrelax.dispersion", ("build_table",)),
    ("dispersion.DispersionTable.index_of", "kinrelax.dispersion",
     ("DispersionTable.index_of",)),
    ("dispersion.DispersionTable.write", "kinrelax.dispersion",
     ("DispersionTable.to_csv", "DispersionTable.to_json")),
    ("dispersion.xi_of_c_quadrature", "kinrelax.dispersion", ("xi_of_c_quadrature",)),
    ("gds.evolve_density", "kinrelax.gds", ("evolve_density",)),
    ("gds.lift_to_kinetic", "kinrelax.gds", ("lift_to_kinetic",)),
    ("gds.to_physical", "kinrelax.gds", ("to_physical",)),
    ("direct.evolve_mode", "kinrelax.direct", ("evolve_mode",)),
    ("direct.ModeOperator.apply", "kinrelax.direct", ("ModeOperator.apply",)),
    ("direct.eig", "numpy.linalg", ("eig",)),
    ("direct.expm", "scipy.linalg", ("expm",)),
    ("diagnostics.compare_gds_direct", "kinrelax.diagnostics", ("compare_gds_direct",)),
    ("quadrature.adaptive_phi_integral", "kinrelax.quadrature", ("adaptive_phi_integral",)),
    ("quadrature.build_grid", "kinrelax.quadrature", ("build_grid",)),
    ("collision.checks", "kinrelax.collision",
     ("check_mass_conservation", "check_self_adjoint", "check_negative_semidefinite",
      "operator_norm_bound_check")),
)

MODULES = ("cli", "dispersion", "quadrature", "gds", "direct", "diagnostics", "collision")

# Layers whose inclusive time is also reported (the command entry points).
INCLUSIVE = tuple(p for p, _, _ in LAYERS if p.startswith("cli.cmd_"))


class Tracer:
    """Wraps the LAYERS functions and accumulates their counts and times."""

    def __init__(self):
        self.calls = {prefix: 0 for prefix, _, _ in LAYERS}
        self.incl_s = {prefix: 0.0 for prefix, _, _ in LAYERS}
        self.self_s = {prefix: 0.0 for prefix, _, _ in LAYERS}
        self.errors = {m: 0 for m in MODULES}
        self.counters = {"dispersion.build_table.rows": 0,
                         "gds.to_physical.bytes_computed": 0}
        self.rk4_steps = {}  # xi -> steps of each rk4 evolve_mode call
        self.absent = []
        self._children = []  # wrapped-call time accumulated under each open call
        self._patched = []  # (container, key, original) in the order replaced

    def install(self) -> None:
        hooks = {"dispersion.build_table": self._count_rows,
                 "gds.to_physical": self._count_bytes,
                 "direct.evolve_mode": self._count_rk4}
        for prefix, module_name, qualnames in LAYERS:
            module = importlib.import_module(module_name)
            for qualname in qualnames:
                owner, attr = _resolve_owner(module, qualname)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(prefix, original, hooks.get(prefix),
                                     external=not module_name.startswith("kinrelax"))
                self._replace(owner, attr, wrapper)
                if owner is module:
                    self._rebind(original, wrapper)

    def uninstall(self) -> None:
        """Put every replaced name back."""
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def _replace(self, container, key, wrapper) -> None:
        if isinstance(container, dict):
            self._patched.append((container, key, container[key]))
            container[key] = wrapper
        else:
            self._patched.append((container, key, getattr(container, key)))
            setattr(container, key, wrapper)

    def _rebind(self, original, wrapper) -> None:
        """Point every kinrelax module name and module-level dict entry
        bound to ``original`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "kinrelax" or name.startswith("kinrelax.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._replace(value, key, wrapper)

    def _wrap(self, prefix, fn, hook, external):
        module_label = prefix.split(".")[0]
        children = self._children
        signature = _signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if external and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("kinrelax"):
                return fn(*args, **kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module_label] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                self.calls[prefix] += 1
                self.incl_s[prefix] += elapsed
                self.self_s[prefix] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(signature, args, kwargs, result)
            return result

        return wrapper

    # The hooks read results defensively: a changed return type leaves a
    # counter at zero rather than failing the traced run.
    def _count_rows(self, _sig, _args, _kwargs, table):
        self.counters["dispersion.build_table.rows"] += len(getattr(table, "xi", ()))

    def _count_bytes(self, _sig, _args, _kwargs, snap):
        arrays = (getattr(snap, name, None) for name in ("x_grid", "rho", "flux", "f"))
        self.counters["gds.to_physical.bytes_computed"] += sum(
            getattr(a, "nbytes", 0) for a in arrays)

    def _count_rk4(self, sig, args, kwargs, _traj):
        if sig is None:
            return
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return
        bound.apply_defaults()
        call = bound.arguments
        if call.get("method") != "rk4" or not {"xi", "t_final", "dt"} <= call.keys():
            return
        steps = int(round(call["t_final"] / call["dt"]))
        self.rk4_steps.setdefault(float(call["xi"]), []).append(steps)

    def rk4_useful_step_ratio(self) -> float:
        """Steps to take each positive-xi mode once to its largest time,
        over all RK4 steps executed (0 when no RK4 step ran)."""
        executed = sum(sum(s) for s in self.rk4_steps.values())
        needed = sum(max(s) for xi, s in self.rk4_steps.items() if xi > 0)
        return needed / executed if executed else 0.0

    def metrics(self) -> dict:
        """Flat ``name -> value`` map of everything recorded."""
        out = {}
        for prefix, _, _ in LAYERS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.self_s"] = self.self_s[prefix]
        for prefix in INCLUSIVE:
            out[f"{prefix}.incl_s"] = self.incl_s[prefix]
        for module, count in self.errors.items():
            out[f"{module}.errors"] = count
        out.update(self.counters)
        out["direct.rk4_useful_step_ratio"] = self.rk4_useful_step_ratio()
        out["trace.absent"] = len(self.absent)
        return out

    def layer_self_s(self) -> float:
        """Self time of every layer below the command entry points."""
        return sum(v for k, v in self.self_s.items() if k not in INCLUSIVE)


def _resolve_owner(module, qualname):
    """(object holding the last name, that name), or (None, name) if missing."""
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None

