"""Command-line entry point.

Commands: dispersion | build-gds | solve-direct | compare | properties.
Configuration is a single JSON document; command-line flags override
fields.  Outputs are CSV (17 significant digits) plus JSON metadata, all
stamped with the artifact version and a hash of the resolved
configuration so runs are reproducible and diffable.

Exit codes: 0 pass, 1 tolerance failure, 2 configuration error.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .collision import (apply_collision, check_mass_conservation,
                        check_negative_semidefinite, check_self_adjoint,
                        collision_matrix, operator_norm_bound_check)
from .diagnostics import (Tolerances, compare_gds_direct, direct_unit_modes,
                          report_to_json, spectral_continuity_residual)
from .direct import ModeOperator, output_times
from .dispersion import (SQRT_PI, build_table, c_of_xi, transfer_function, xi_of_c,
                         xi_of_c_quadrature)
from .gds import (PROFILE_NAMES, evolve_density, lift_to_kinetic,
                  make_band_limited_density, to_physical)
from .quadrature import build_grid, gaussian_moment, moment

# Frequencies of the reference dispersion curve, always included in the
# emitted table so the reproduction rows are sampled exactly.
REFERENCE_CURVE_XI = (1.4198, 1.17853, 0.998537, 0.860816, 0.753057,
                      0.667063, 0.597234, 0.539653, 0.491519, 0.450792)

# Keyword parameters of make_band_limited_density a config profile may set.
PROFILE_PARAMS = ("amplitude", "sigma", "center", "xi0", "time")

DEFAULT_CONFIG = {
    "n_velocity": 64,
    "xi_max": 0.9,
    "modes": 128,
    "x_points": 512,
    "profile": {"name": "gaussian-bump", "sigma": 0.18, "center": 0.45,
                "amplitude": 1.0},
    "times": [0.5, 1.0, 2.0, 5.0],
    "method": "exact",
    "seed": 1234,
    "out": "out",
    "xi_min": 1e-6,
    "edge_margin": 1e-6,
    "dispersion_samples": 200,
    "identity_band": 0.75,
    "identity_samples": 200,
    "dt": 0.01,
    "t_final": 5.0,
    "output_stride": 10,
    "include_kinetic": False,
    "inject_lambda_error": 0.0,
    "fail_fast": False,
    "tolerances": {},
}


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` feeds the reproducibility hash."""

    n_velocity: int
    xi_max: float
    modes: int
    x_points: int
    profile: dict
    times: list
    method: str
    seed: int
    out: str
    xi_min: float
    edge_margin: float
    dispersion_samples: int
    identity_band: float
    identity_samples: int
    dt: float
    t_final: float
    output_stride: int
    include_kinetic: bool
    inject_lambda_error: float
    fail_fast: bool
    tolerances: Tolerances
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        merged = {**DEFAULT_CONFIG, **data}
        unknown = set(merged) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(merged["profile"], dict):
            raise ConfigError("profile must be an object with a 'name' field")
        if not isinstance(merged["times"], (list, tuple)):
            raise ConfigError("times must be a list of numbers")
        try:
            cfg = cls(**{f.name: f.type(merged[f.name]) for f in fields(cls)
                         if f.type in (int, float, str, bool)},
                      profile={k: v if k == "name" else float(v)
                               for k, v in merged["profile"].items()},
                      times=[float(t) for t in merged["times"]],
                      tolerances=Tolerances.from_dict(merged["tolerances"]), raw=merged)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self) -> None:
        reals = [getattr(self, f.name) for f in fields(self) if f.type is float]
        reals += [*self.times, *astuple(self.tolerances),
                  *(v for k, v in self.profile.items() if k != "name")]
        if not all(math.isfinite(x) for x in reals):
            raise ConfigError("real-valued keys, times, tolerances and profile "
                              "parameters must be finite")
        if self.n_velocity < 2:
            raise ConfigError("n_velocity must be >= 2")
        if not 0.0 < self.xi_max < SQRT_PI:
            raise ConfigError(f"xi_max must lie in (0, sqrt(pi) ~ {SQRT_PI:.9f})")
        if self.modes < 1:
            raise ConfigError("modes must be >= 1 (empty band)")
        if self.x_points < 2 * (self.modes + 1) or self.x_points & (self.x_points - 1):
            raise ConfigError("x_points must be a power of two >= 2*(modes+1)")
        if self.method not in ("rk4", "exact"):
            raise ConfigError("method must be 'rk4' or 'exact'")
        if not self.times or min(self.times) < 0.0:
            raise ConfigError("times must be nonnegative")
        if self.profile.get("name") not in PROFILE_NAMES:
            raise ConfigError(f"unknown profile {self.profile.get('name')!r}")
        unknown = set(self.profile) - {"name", *PROFILE_PARAMS}
        if unknown:
            raise ConfigError(f"unknown profile parameters: {sorted(unknown)}")
        if not all(0.0 <= x < SQRT_PI for x in (self.xi_min, self.edge_margin)):
            raise ConfigError("xi_min and edge_margin must lie in [0, sqrt(pi))")
        if not (self.dt > 0.0 and self.t_final > 0.0) or self.output_stride < 1:
            raise ConfigError("dt, t_final must be positive, output_stride >= 1")
        if not 0.0 < self.identity_band < SQRT_PI:
            raise ConfigError("identity_band must lie in (0, sqrt(pi))")
        if self.dispersion_samples < 2 or self.identity_samples < 2:
            raise ConfigError("sample counts must be >= 2")

    @property
    def dxi(self) -> float:
        return self.xi_max / self.modes

    @property
    def domain_length(self) -> float:
        return 2.0 * math.pi / self.dxi

    @property
    def solver_method(self) -> str:
        return "exact-dense" if self.method == "exact" else "rk4"

    def hash(self) -> str:
        hashed = {k: v for k, v in self.raw.items() if k != "out"}
        blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"),
                          default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    return f"{value:.17g}"


def write_csv(path: Path, columns, rows, config: RunConfig, extra_meta=()) -> None:
    lines = [f"# kinrelax {__version__}", f"# config-hash: {config.hash()}"]
    lines.extend(f"# {item}" for item in extra_meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, config: RunConfig) -> None:
    doc = {"artifact": f"kinrelax {__version__}", "config_hash": config.hash(),
           **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n")


def _make_profile(config: RunConfig):
    params = {k: v for k, v in config.profile.items() if k != "name"}
    return make_band_limited_density(config.profile["name"], xi_max=config.xi_max,
                                     modes=config.modes, **params)


def _table_for(config: RunConfig, rho0):
    return build_table(rho0.active_frequencies(), xi_min=config.xi_min,
                       edge_margin=config.edge_margin)


def _tag(t: float) -> str:
    return f"{t:g}".replace(".", "p").replace("-", "m")


def cmd_dispersion(config: RunConfig, out: Path) -> int:
    xi = np.concatenate([np.linspace(0.01, SQRT_PI - 1e-3, config.dispersion_samples),
                         REFERENCE_CURVE_XI])
    table = build_table(np.concatenate([-xi, xi]), xi_min=config.xi_min,
                        edge_margin=config.edge_margin,
                        metadata={"artifact": f"kinrelax {__version__}",
                                  "config_hash": config.hash()})
    bad = table.xi[~((table.lam > -1.0) & (table.lam < 0.0))].tolist()
    table.to_csv(out / "dispersion.csv")
    table.to_json(out / "dispersion.json")
    write_json(out / "dispersion_meta.json", {
        "rows": len(table),
        "decay_rate_range_violations": bad,
        "band_edge": SQRT_PI,
    }, config)
    if bad:
        print(f"dispersion: {len(bad)} rows violate the decay-rate range (-1, 0)")
        return 1
    print(f"dispersion: wrote {len(table)} rows to {out / 'dispersion.csv'}")
    return 0


def cmd_build_gds(config: RunConfig, out: Path) -> int:
    grid = build_grid(config.n_velocity)
    rho0 = _make_profile(config)
    table = _table_for(config, rho0)
    for t in config.times:
        rho_t = evolve_density(rho0, t, table)
        state = lift_to_kinetic(rho_t, table, grid)
        snap = to_physical(state, config.x_points, include_f=config.include_kinetic)
        tag = _tag(t)
        write_csv(out / f"spectral_t{tag}.csv", ("xi", "re_rho_hat", "im_rho_hat"),
                  [(x, z.real, z.imag) for x, z in zip(rho_t.xi_grid, rho_t.rho_hat)],
                  config, extra_meta=(f"time={_fmt(t)}",))
        write_csv(out / f"fields_t{tag}.csv", ("x", "rho", "flux"),
                  zip(snap.x_grid, snap.rho, snap.flux), config,
                  extra_meta=(f"time={_fmt(t)}", f"domain_length={_fmt(snap.domain_length)}"))
        if config.include_kinetic and snap.f is not None:
            cols = ["x"] + [f"f_v{j}" for j in range(grid.order)]
            write_csv(out / f"kinetic_t{tag}.csv", cols,
                      (np.concatenate(([x], frow)) for x, frow in zip(snap.x_grid, snap.f)),
                      config, extra_meta=(f"time={_fmt(t)}",))
            write_json(out / f"kinetic_t{tag}_columns.json", {
                "columns": cols,
                "velocity_nodes": grid.nodes.tolist(),
                "velocity_weights": grid.weights.tolist(),
            }, config)
    print(f"build-gds: wrote {2 * len(config.times)} field/spectral files to {out}")
    return 0


def cmd_solve_direct(config: RunConfig, out: Path) -> int:
    grid = build_grid(config.n_velocity)
    rho0 = _make_profile(config)
    table = _table_for(config, rho0)
    traj_dir = out / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)
    times = output_times(config.t_final, config.dt, config.output_stride)
    unit, dist = direct_unit_modes(rho0, table, grid, times,
                                   method=config.solver_method, dt=config.dt)
    for k, i in enumerate(rho0.active_indices()):
        xi = float(rho0.xi_grid[i])
        write_csv(traj_dir / f"mode_{_tag(xi)}.csv",
                  ("t", "re_rho_hat", "im_rho_hat", "gds_distance"),
                  [(t, d.real, d.imag, s) for t, d, s in
                   zip(times, rho0.rho_hat[i] * unit[:, k], dist[:, k])],
                  config, extra_meta=(f"xi={_fmt(xi)}", f"method={config.solver_method}"))
    print(f"solve-direct: wrote {unit.shape[1]} mode trajectories to {traj_dir}")
    return 0


def cmd_compare(config: RunConfig, out: Path) -> int:
    grid = build_grid(config.n_velocity)
    rho0 = _make_profile(config)
    table = _table_for(config, rho0)
    report = compare_gds_direct(
        rho0, config.times, table, grid, method=config.solver_method,
        tolerance=config.tolerances.gds_vs_direct,
        lambda_offset=config.inject_lambda_error,
    )
    report_to_json([report], out / "compare.json")
    write_csv(out / "compare.csv", ("max_residual", "l2_residual", "tolerance"),
              [(report.max_residual, report.l2_residual, report.tolerance)],
              config, extra_meta=(f"passed={report.passed}",))
    print(report.format_text())
    return 0 if report.passed else 1


def _property_rows(config: RunConfig):
    """Yield (name, value, tolerance) for each row of the property battery.

    Rows are computed as they are drawn, so stopping early skips the rest.
    """
    tol = config.tolerances
    grid = build_grid(config.n_velocity)
    w, v = grid.weights, grid.nodes
    rng = np.random.default_rng(config.seed)

    yield "weights_sum_error", abs(np.sum(w) - 1.0), tol.weights_sum
    yield "node_antisymmetry", float(np.max(np.abs(v + v[::-1]))), tol.weights_sum
    yield ("second_moment_error",
           abs(moment(np.ones(grid.order), 2, grid) - gaussian_moment(2)),
           tol.second_moment)

    z = rng.standard_normal((1000, 2, grid.order))
    yield ("mass_conservation_max",
           np.max(check_mass_conservation(z[:, 0] + 1j * z[:, 1], grid)),
           tol.mass_conservation)
    z = rng.standard_normal((200, 2, grid.order))
    yield ("self_adjoint_max", np.max(check_self_adjoint(z[:, 0], z[:, 1], grid)),
           tol.self_adjoint)
    yield ("negative_semidefinite_max",
           np.max(check_negative_semidefinite(rng.standard_normal((200, grid.order)), grid)),
           tol.negative_semidefinite)

    const = 3.7 * np.ones(grid.order)
    yield ("constant_kernel_residual", float(np.max(np.abs(apply_collision(const, grid)))),
           tol.mass_conservation)
    yield ("operator_norm_ratio", operator_norm_bound_check(grid, 1000, config.seed),
           tol.operator_norm)

    eigvals = np.linalg.eigvals(collision_matrix(grid))
    spectrum_err = float(np.max(np.minimum(np.abs(eigvals), np.abs(eigvals + 1.0))))
    n_zero = int(np.sum(np.abs(eigvals) < np.abs(eigvals + 1.0)))
    yield "collision_spectrum_error", spectrum_err, tol.collision_spectrum
    yield "collision_kernel_multiplicity_error", abs(n_zero - 1), 0.0

    f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
    cc = apply_collision(apply_collision(f, grid), grid)
    yield ("idempotent_complement_max",
           float(np.max(np.abs(cc + apply_collision(f, grid)))), tol.mass_conservation)

    xi = np.linspace(0.01, config.identity_band, config.identity_samples)
    table = build_table(np.concatenate([-xi, xi]), xi_min=config.xi_min,
                        edge_margin=config.edge_margin)
    K = transfer_function(table, grid)
    pair = ModeOperator(xi=table.xi, grid=grid).apply(K) - table.lam[:, None] * K
    yield ("transfer_normalization_max", float(np.max(np.abs(K @ w - 1.0))),
           tol.transfer_identity)
    yield ("transfer_flux_max", float(np.max(np.abs(K @ (w * v) - 1j * table.a))),
           tol.transfer_identity)
    yield ("eigenpair_residual_max", float(np.max(np.sqrt(np.abs(pair) ** 2 @ w))),
           tol.eigenpair)

    gap = build_table(np.linspace(0.1, config.identity_band, 8))
    mu, _ = ModeOperator(xi=gap.xi, grid=grid).hydrodynamic_eigenpair()
    yield "dense_eigenvalue_gap_max", float(np.max(np.abs(mu - gap.lam))), tol.eigenpair

    xi = np.linspace(0.01, SQRT_PI - 0.01, 200)
    yield ("xi_roundtrip_max", float(np.max(np.abs(xi_of_c(c_of_xi(xi)) - xi))),
           tol.xi_roundtrip)

    c = np.logspace(-4, 4, 17)
    quad = np.array([xi_of_c_quadrature(x) for x in c])
    yield ("closed_form_vs_quadrature_max_rel",
           float(np.max(np.abs(xi_of_c(c) - quad) / np.abs(xi_of_c(c)))),
           tol.closed_form_vs_quadrature)

    rho0 = _make_profile(config)
    yield ("spectral_continuity_max",
           spectral_continuity_residual(rho0, _table_for(config, rho0)).max_residual,
           tol.spectral_continuity)


def cmd_properties(config: RunConfig, out: Path) -> int:
    rows = []
    for name, value, bound in _property_rows(config):
        rows.append({"name": name, "value": float(value), "tolerance": float(bound),
                     "passed": bool(value <= bound)})
        if config.fail_fast and not rows[-1]["passed"]:
            break  # the rows gathered so far are still reported
    all_ok = all(r["passed"] for r in rows)
    write_json(out / "properties.json", {"rows": rows, "all_passed": all_ok}, config)
    write_csv(out / "properties.csv", ("value", "tolerance", "passed"),
              [(r["value"], r["tolerance"], 1.0 if r["passed"] else 0.0) for r in rows],
              config, extra_meta=[f"row{i}={r['name']}" for i, r in enumerate(rows)])
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']}: {r['value']:.3e} (tol {r['tolerance']:.3e})")
    return 0 if all_ok else 1


COMMANDS = {
    "dispersion": cmd_dispersion,
    "build-gds": cmd_build_gds,
    "solve-direct": cmd_solve_direct,
    "compare": cmd_compare,
    "properties": cmd_properties,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinrelax",
        description="Density-determined solutions of a 1D relaxation kinetic "
                    "equation: build, verify, and export.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (flags override its fields)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--n-velocity", type=int, default=None)
    parser.add_argument("--xi-max", type=float, default=None)
    parser.add_argument("--modes", type=int, default=None)
    parser.add_argument("--x-points", type=int, default=None)
    parser.add_argument("--times", type=str, default=None,
                        help="comma-separated output times")
    parser.add_argument("--method", choices=("rk4", "exact"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--profile", type=str, default=None,
                        help="profile name (gaussian-bump | hann-band | single-mode)")
    parser.add_argument("--inject-lambda-error", type=float, default=None,
                        help="corrupt the closed-form decay rate (sensitivity check)")
    parser.add_argument("--fail-fast", action="store_true", default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    overrides = {k: getattr(args, k) for k in (
        "out", "n_velocity", "xi_max", "modes", "x_points", "method", "seed",
        "inject_lambda_error", "fail_fast")}
    if args.times is not None:
        try:
            overrides["times"] = [float(tok) for tok in args.times.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --times {args.times!r}") from exc
    if args.profile is not None:
        current = data.get("profile", DEFAULT_CONFIG["profile"])
        if isinstance(current, dict) and current.get("name") == args.profile:
            overrides["profile"] = current  # keep its parameters
        else:
            overrides["profile"] = {"name": args.profile}  # library defaults
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](config, out)
    except ValueError as exc:
        # validation raised after resolution (band, stability, grid shape, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
