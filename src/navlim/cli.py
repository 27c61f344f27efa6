"""Command-line entry point.

Subcommands:
  sweep-time   Monte-Carlo average SPEB against the number of time steps
  sweep-nodes  Monte-Carlo average SPEB against the number of agents
  verify       randomized identity suite (recursion, decompositions, ...)
  ellipse      per-agent information ellipses of a scenario file

Exit codes: 0 success, 1 identity failure, 2 configuration error,
3 numerical failure, 4 lost sweep worker. The environment variable
NAVLIM_SEED supplies the default seed (a non-negative integer, else exit 2);
an explicit --seed always wins.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import navinfo, simkit
from .blockfim import SingularBlockError, block_diag
from .geom2d import Eigen2, eigen2, info_ellipse, r_dir
from .models import GeometryError, Scenario, random_walks
from .simkit import (
    ALL_MODES,
    AuditError,
    ConfigError,
    CoopMode,
    ScenarioConfig,
    SweepNumericalError,
    format_value,
    persist,
    write_atomic,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WORKER = 4


def _default_seed() -> int:
    text = os.environ.get("NAVLIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"NAVLIM_SEED must be an integer, got {text!r}")


def _parse_range(text: str) -> range:
    """'1..20' -> range(1, 21); '7' -> range(7, 8): step or agent counts,
    from 1 on. Nothing is listed, so the config checks the last count
    before a sweep lists the range."""
    lo, dots, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ConfigError(f"cannot parse range {text!r}")
    if hi_i < lo_i:
        raise ConfigError(f"empty range {text!r}")
    if lo_i < 1:
        raise ConfigError(f"range {text!r} must start at 1 or more")
    return range(lo_i, hi_i + 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message} (see '{self.prog} --help' for usage)\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="navlim",
        description="Accuracy limits of cooperative network navigation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (default: NAVLIM_SEED or 0)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--emit", choices=("csv", "svg", "both"), default="csv")

    def add_sweep_common(p):
        add_common(p)
        p.add_argument("--trials", type=int, default=500)
        p.add_argument("--anchors", type=int, default=4)
        p.add_argument("--area", type=float, nargs=2, default=(20.0, 20.0), metavar=("W", "H"))
        p.add_argument("--range-intensity", type=float, default=5.0, help="ranging intensity (m^-2)")
        p.add_argument("--vel-along", type=float, default=5.0)
        p.add_argument("--vel-across", type=float, default=5.0)
        p.add_argument("--vel-couple", type=float, default=0.0)
        p.add_argument("--step-cov", type=float, default=1.0, help="random-walk step variance (m^2)")
        p.add_argument("--radius", type=float, default=None, help="ranging radius (default: full connectivity)")
        p.add_argument(
            "--modes",
            default="all",
            help="comma-separated subset of spatial_only,temporal_only,joint",
        )

    p_time = sub.add_parser("sweep-time", help="average SPEB vs time steps")
    p_time.set_defaults(run=cmd_sweep_time)
    add_sweep_common(p_time)
    p_time.add_argument("--steps", default="1..20", help="step-count range, e.g. 1..20")
    p_time.add_argument("--agents", type=int, default=5)

    p_nodes = sub.add_parser("sweep-nodes", help="average SPEB vs number of agents")
    p_nodes.set_defaults(run=cmd_sweep_nodes)
    add_sweep_common(p_nodes)
    p_nodes.add_argument("--agents", default="2..12", help="agent-count range, e.g. 2..12")
    p_nodes.add_argument("--steps", type=int, default=10, help="fixed horizon length")

    p_verify = sub.add_parser("verify", help="randomized identity suite")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--list", action="store_true", help="list identity names and exit")

    p_ell = sub.add_parser("ellipse", help="information ellipses of a scenario file")
    p_ell.set_defaults(run=cmd_ellipse)
    add_common(p_ell)
    p_ell.add_argument("--scenario", required=True, help="scenario JSON path")
    return parser


def _parse_modes(text: str) -> tuple[CoopMode, ...]:
    if text.strip() == "all":
        return ALL_MODES
    out = []
    for name in text.split(","):
        try:
            out.append(CoopMode(name.strip()))
        except ValueError:
            raise ConfigError(f"unknown mode {name.strip()!r}")
    simkit._check_modes(out)
    return tuple(out)


def _sweep_setup(
    args, num_agents: int, num_steps: int
) -> tuple[ScenarioConfig, tuple[CoopMode, ...]]:
    """The sweep's scenario config and modes, --trials checked; --out-dir is
    made here, before the sweep runs, so that an unusable one fails at once."""
    simkit.check_trials(args.trials)
    cfg = ScenarioConfig(
        area=tuple(args.area),
        num_agents=num_agents,
        num_anchors=args.anchors,
        num_steps=num_steps,
        vel_along=args.vel_along,
        vel_across=args.vel_across,
        vel_couple=args.vel_couple,
        range_intensity=args.range_intensity,
        step_cov=args.step_cov,
        connectivity=args.radius,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    modes = _parse_modes(args.modes)
    _make_out_dir(args.out_dir)
    return cfg, modes


def cmd_sweep_time(args) -> int:
    steps = _parse_range(args.steps)
    cfg, modes = _sweep_setup(args, args.agents, steps[-1])
    table = simkit.sweep_time(cfg, steps=steps, modes=modes, trials=args.trials)
    return _emit_sweep(table, args, "sweep_time", "time steps")


def cmd_sweep_nodes(args) -> int:
    counts = _parse_range(args.agents)
    cfg, modes = _sweep_setup(args, counts[-1], args.steps)
    table = simkit.sweep_nodes(cfg, counts, modes=modes, trials=args.trials)
    return _emit_sweep(table, args, "sweep_nodes", "number of agents")


@contextlib.contextmanager
def _writing_to(out_dir: str):
    """A file in `out_dir` that cannot be written in the block is a
    configuration error naming the directory."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"unusable --out-dir {out_dir}: {exc}") from None


def _make_out_dir(out_dir: str) -> None:
    """Create `out_dir`; one that cannot be created is a configuration error."""
    with _writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)


def _emit_sweep(table, args, stem: str, x_label: str) -> int:
    csv_path = os.path.join(args.out_dir, f"{stem}.csv")
    with _writing_to(args.out_dir):
        persist(table, csv_path)
    print(f"wrote {csv_path} ({len(table.rows)} rows, {table.failed_trials} failed trials)")
    if args.emit in ("svg", "both"):
        svg_path = os.path.join(args.out_dir, f"{stem}.svg")
        with _writing_to(args.out_dir):
            write_atomic(svg_path, _sweep_svg(table, x_label))
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenario files


_INTENSITY_KEYS = {"lambda_kk", "nu_kk", "xi_kk", "lambda_kj"}
_TOP_KEYS = {"area", "anchors", "agents", "T", "intensities", "step_cov", "connectivity", "seed"}


def _float_array(value, context: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} is not numeric: {exc}")


def _number(value, context: str) -> float:
    array = _float_array(value, context)
    if array.ndim != 0:
        raise ConfigError(f"{context} must be a number")
    return float(array)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario JSON file (strict: unknown keys are rejected) into a
    `ScenarioConfig` plus explicit anchors and, when given, agent
    trajectories, and build it as generated scenarios are built."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must hold a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("area", "anchors", "agents", "T", "intensities"):
        if key not in raw:
            raise ConfigError(f"scenario key {key!r} is required")
    area = _float_array(raw["area"], "area")
    if area.shape != (2,):
        raise ConfigError("area must be [width, height] with positive entries")
    t = raw["T"]
    if not (type(t) is int and t >= 1):
        raise ConfigError("T must be an integer >= 1")
    intens = raw["intensities"]
    if not isinstance(intens, dict):
        raise ConfigError("intensities must be a JSON object")
    unknown = set(intens) - _INTENSITY_KEYS
    if unknown:
        raise ConfigError(f"unknown intensity keys: {sorted(unknown)}")
    missing = _INTENSITY_KEYS - set(intens)
    if missing:
        raise ConfigError(f"missing intensity keys: {sorted(missing)}")

    anchors = _float_array(raw["anchors"], "anchors")
    if anchors.size and anchors.shape[1:] != (2,):
        raise ConfigError("anchors must be a list of [x, y]")
    anchors = anchors.reshape(-1, 2)

    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError("seed must be an integer")
    cov = _float_array(raw.get("step_cov", 1.0), "step_cov")
    connectivity = raw.get("connectivity", "full")
    if connectivity == "full":
        radius = None
    elif isinstance(connectivity, dict) and set(connectivity) == {"radius"}:
        radius = _number(connectivity["radius"], "radius")
    else:
        raise ConfigError("connectivity must be 'full' or {'radius': r}")

    agents = raw["agents"]
    walks = None
    if type(agents) is not int:
        walks = _float_array(agents, "agents")
        if walks.ndim != 3 or walks.shape[1:] != (t, 2):
            raise ConfigError("agent trajectories must have shape (agents, T, 2)")
        agents = walks.shape[0]
    cfg = ScenarioConfig(
        area=tuple(area.tolist()),
        num_agents=agents,
        num_anchors=len(anchors),
        num_steps=t,
        vel_along=_number(intens["lambda_kk"], "lambda_kk"),
        vel_across=_number(intens["nu_kk"], "nu_kk"),
        vel_couple=_number(intens["xi_kk"], "xi_kk"),
        range_intensity=_number(intens["lambda_kj"], "lambda_kj"),
        step_cov=float(cov) if cov.ndim == 0 else cov,
        connectivity=radius,
        seed=seed,
    )
    try:
        if walks is None:
            rng = np.random.default_rng([seed])
            walks = random_walks(rng, cfg.area, agents, t, cfg.step_factor)
        paths = np.concatenate([walks, np.repeat(anchors[:, None, :], t, axis=1)])
        return simkit.build_scenario(cfg, paths)
    except ValueError as exc:
        raise ConfigError(f"invalid scenario values: {exc}")


def cmd_ellipse(args) -> int:
    scenario = load_scenario(args.scenario)
    geom = scenario.geometry
    na, t = geom.num_agents, geom.num_steps
    rows = []
    carry = [np.zeros((2, 2)) for _ in range(na)]
    s_prev = None
    for n in range(t):
        try:
            s_n = navinfo.spatial_step_matrix(scenario, n)
            if n > 0:
                k_blocks = navinfo.temporal_step_blocks(scenario, n)
                carry = navinfo.distributed_carry_over(s_prev, carry, k_blocks)
        except GeometryError as exc:
            raise ConfigError(f"invalid scenario geometry: {exc}")
        after = navinfo.individual_efims(s_n + block_diag(carry))
        if not (np.isfinite(carry).all() and np.isfinite(after).all()):
            raise np.linalg.LinAlgError(f"non-finite information at step {n}")
        for k in range(na):
            rows.append(_ellipse_row(k, n, "carry_over", carry[k]))
            rows.append(_ellipse_row(k, n, "after_spatial", after[k]))
        s_prev = s_n
    _make_out_dir(args.out_dir)
    csv_path = os.path.join(args.out_dir, "ellipses.csv")
    header = "agent,step,stage,semi_major_m_inv,semi_minor_m_inv,orientation_rad,degenerate"
    lines = [header] + [
        f"{k},{n},{stage},{format_value(a)},{format_value(b)},{format_value(ang)},{str(deg).lower()}"
        for (k, n, stage, a, b, ang, deg) in rows
    ]
    with _writing_to(args.out_dir):
        write_atomic(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path} ({len(rows)} rows)")
    if args.emit in ("svg", "both"):
        svg_path = os.path.join(args.out_dir, "ellipses.svg")
        with _writing_to(args.out_dir):
            write_atomic(svg_path, _ellipse_svg(scenario, rows))
        print(f"wrote {svg_path}")
    return EXIT_OK


def _ellipse_row(k: int, n: int, stage: str, info: np.ndarray):
    try:
        ell = info_ellipse(info)
        return (k, n, stage, ell.semi_major, ell.semi_minor, ell.orientation, False)
    except ValueError:
        e = eigen2(info)
        return (
            k,
            n,
            stage,
            math.sqrt(max(e.lambda1, 0.0)),
            math.sqrt(max(e.lambda2, 0.0)),
            e.angle1,
            True,
        )


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled: a static figure needs no plotting stack)


def _svg_header(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


_MODE_COLORS = {
    "spatial_only": "#1f77b4",
    "temporal_only": "#2ca02c",
    "joint": "#d62728",
}


def _sweep_svg(table, x_label: str, width: int = 640, height: int = 420) -> str:
    margin = 60
    rows = [r for r in table.sorted_rows() if math.isfinite(r.mean_speb)]
    parts = [_svg_header(width, height)]
    if rows:
        xs = sorted({r.sweep_value for r in rows})
        ys = [r.mean_speb for r in rows]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        if x_hi <= x_lo:
            x_hi = x_lo + 1

        def px(x):
            return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

        def py(y):
            return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

        parts.append(
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>\n'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
            f'stroke="black"/>\n'
        )
        parts.append(
            f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
            f'font-size="13">{x_label}</text>\n'
            f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 18 {height // 2})">average SPEB (m^2)</text>\n'
            f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x_lo}</text>\n'
            f'<text x="{width - margin}" y="{height - margin + 16}" font-size="11" '
            f'text-anchor="end">{x_hi}</text>\n'
            f'<text x="{margin - 6}" y="{height - margin}" font-size="11" '
            f'text-anchor="end">{y_lo:.3g}</text>\n'
            f'<text x="{margin - 6}" y="{margin + 4}" font-size="11" '
            f'text-anchor="end">{y_hi:.3g}</text>\n'
        )
        for i, mode in enumerate(_MODE_COLORS):
            series = [r for r in rows if r.mode == mode]
            if not series:
                continue
            color = _MODE_COLORS[mode]
            points = " ".join(f"{px(r.sweep_value):.2f},{py(r.mean_speb):.2f}" for r in series)
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>\n'
            )
            ly = margin + 16 * i
            parts.append(
                f'<line x1="{width - margin - 110}" y1="{ly}" x2="{width - margin - 90}" '
                f'y2="{ly}" stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{width - margin - 84}" y="{ly + 4}" font-size="11">{mode}</text>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def _ellipse_svg(scenario: Scenario, rows, width: int = 640, height: int = 640) -> str:
    geom = scenario.geometry
    if not geom.num_nodes:  # an empty figure, as `_sweep_svg` draws without finite rows
        return _svg_header(width, height) + "</svg>\n"
    margin = 40
    pts = geom.paths.reshape(-1, 2)
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    span = max(hi[0] - lo[0], hi[1] - lo[1])

    def px(p):
        return margin + (p[0] - lo[0]) / span * (width - 2 * margin)

    def py(p):
        return height - margin - (p[1] - lo[1]) / span * (height - 2 * margin)

    scale = (width - 2 * margin) / span * 0.4  # meters^-1 -> pixels, for legibility
    parts = [_svg_header(width, height)]
    for k in range(geom.num_agents):
        path = geom.paths[k]
        points = " ".join(f"{px(p):.2f},{py(p):.2f}" for p in path)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#999" stroke-dasharray="4 3"/>\n'
        )
    stage_color = {"carry_over": "#2ca02c", "after_spatial": "#d62728"}
    for (k, n, stage, a, b, ang, degenerate) in rows:
        center = geom.paths[k, n]
        if a <= 0.0:
            continue
        dash = ' stroke-dasharray="3 3"' if degenerate else ""
        parts.append(
            f'<ellipse cx="{px(center):.2f}" cy="{py(center):.2f}" '
            f'rx="{max(a * scale, 0.5):.2f}" ry="{max(b * scale, 0.5):.2f}" '
            f'transform="rotate({-math.degrees(ang):.2f} {px(center):.2f} {py(center):.2f})" '
            f'fill="none" stroke="{stage_color[stage]}"{dash}/>\n'
        )
    for j in range(geom.num_agents, geom.num_nodes):
        p = geom.paths[j, 0]
        parts.append(
            f'<rect x="{px(p) - 4:.2f}" y="{py(p) - 4:.2f}" width="8" height="8" fill="#1f77b4"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# verify: randomized identity suite


def _random_small_config(rng: np.random.Generator, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        num_agents=int(rng.integers(1, 4)),
        num_anchors=int(rng.integers(1, 4)),
        num_steps=int(rng.integers(1, 5)),
        vel_along=float(rng.uniform(1.0, 8.0)),
        vel_across=float(rng.uniform(1.0, 8.0)),
        vel_couple=0.0,
        range_intensity=float(rng.uniform(1.0, 8.0)),
        seed=seed,
    )


def _identity_recursion(rng: np.random.Generator, cases: int, tol: float) -> None:
    for case in range(cases):
        cfg = _random_small_config(rng, int(rng.integers(0, 2**31)))
        scenario = simkit.generate_scenario(cfg, (case,))
        full = navinfo.assemble_position_efim(scenario)
        na, t = cfg.num_agents, cfg.num_steps
        carry = np.zeros((2 * na, 2 * na))
        for n in range(1, t):
            k_full = block_diag(navinfo.temporal_step_blocks(scenario, n))
            carry = navinfo.carry_over_step(
                k_full, navinfo.spatial_step_matrix(scenario, n - 1), carry
            )
            suffix = navinfo.assemble_position_efim(scenario, start_step=n, carry=carry)
            keep = [(k, m) for k in range(na) for m in range(n, t)]
            marginal = navinfo.marginal_efim(full, keep)
            num = np.linalg.norm(suffix.matrix - marginal.matrix)
            den = max(np.linalg.norm(marginal.matrix), 1e-30)
            if not num / den < tol:
                raise AssertionError(f"suffix {n}, case {case}: rel err {num / den:.3e}")


def _random_spd2(rng: np.random.Generator) -> np.ndarray:
    l1 = float(rng.uniform(0.1, 10.0))
    l2 = float(rng.uniform(0.1, 10.0))
    ang = float(rng.uniform(0.0, 2 * math.pi))
    return l1 * r_dir(ang) + l2 * r_dir(ang + math.pi / 2)


def _identity_weighted_sum(rng: np.random.Generator, cases: int, tol: float) -> None:
    for case in range(cases):
        k = _random_spd2(rng)
        s = _random_spd2(rng)
        split = navinfo.decompose_weighted_sum(k, s)
        direct = navinfo.carry_over_step(k, s)
        recon = split.w_spatial * s + split.w_temporal * k
        err = np.linalg.norm(recon - direct) / max(np.linalg.norm(direct), 1e-30)
        if not err < tol:
            raise AssertionError(f"case {case}: rel err {err:.3e}")


def _identity_axes_coupling(rng: np.random.Generator, cases: int, tol: float) -> None:
    for case in range(cases):
        lam, nu = sorted(rng.uniform(0.1, 10.0, size=2))[::-1]
        ang = float(rng.uniform(0.0, 2 * math.pi))
        k_eigen = Eigen2(float(lam), float(nu), ang)
        s = _random_spd2(rng)
        split = navinfo.decompose_axes_coupling(k_eigen, s)
        direct = navinfo.carry_over_step(k_eigen.reconstruct(), s)
        err = np.linalg.norm(split.reconstruct() - direct) / max(
            np.linalg.norm(direct), 1e-30
        )
        if not err < tol:
            raise AssertionError(f"case {case}: reconstruction err {err:.3e}")
        closed = navinfo.axes_coupling_closed_form(k_eigen, s)
        general = (split.zeta1, split.zeta2, split.coupling)
        for g, c in zip(general, closed):
            if not abs(g - c) <= tol * max(1.0, abs(c)):
                raise AssertionError(f"case {case}: closed form mismatch {g} vs {c}")


def _identity_anchor_equivalence(rng: np.random.Generator, cases: int, tol: float) -> None:
    for case in range(cases):
        cfg = ScenarioConfig(
            num_agents=int(rng.integers(2, 5)),
            num_anchors=int(rng.integers(1, 4)),
            num_steps=int(rng.integers(2, 4)),
            seed=int(rng.integers(0, 2**31)),
        )
        scenario = simkit.generate_scenario(cfg, (case,))
        na, t = cfg.num_agents, cfg.num_steps
        pinned = replace(
            scenario,
            priors=tuple((na - 1, n, 1e12 * np.eye(2)) for n in range(t)),
        )
        as_anchor = simkit.build_scenario(replace(cfg, num_agents=na - 1), scenario.geometry.paths)
        j_pinned = navinfo.assemble_position_efim(pinned)
        j_anchor = navinfo.assemble_position_efim(as_anchor)
        for k in range(na - 1):
            for n in range(t):
                a = navinfo.speb(j_pinned, k, n)
                b = navinfo.speb(j_anchor, k, n)
                if not abs(a - b) <= tol * max(abs(b), 1e-30):
                    raise AssertionError(
                        f"case {case}: agent {k} step {n}: {a} vs {b}"
                    )


def _identity_banding(rng: np.random.Generator, cases: int, tol: float) -> None:
    for case in range(cases):
        cfg = _random_small_config(rng, int(rng.integers(0, 2**31)))
        scenario = simkit.generate_scenario(cfg, (case,))
        j = navinfo.assemble_position_efim(scenario)
        na, t = cfg.num_agents, cfg.num_steps
        for n in range(t):
            for m in range(n + 2, t):
                blk = j.matrix[2 * na * n : 2 * na * (n + 1), 2 * na * m : 2 * na * (m + 1)]
                if blk.any():
                    raise AssertionError(f"case {case}: nonzero block ({n}, {m})")


_IDENTITIES = [
    ("carry-over-recursion", _identity_recursion, 1e-9, 20),
    ("weighted-sum-split", _identity_weighted_sum, 1e-10, 1),
    ("axes-coupling-split", _identity_axes_coupling, 1e-10, 1),
    ("anchor-equivalence", _identity_anchor_equivalence, 1e-4, 100),
    ("cross-time-banding", _identity_banding, 0.0, 20),
]


def cmd_verify(args) -> int:
    if args.list:
        for name, _, _, _ in _IDENTITIES:
            print(name)
        return EXIT_OK
    if args.cases < 1:
        raise ConfigError("--cases must be >= 1")
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    failures = 0
    for index, (name, func, tol, divisor) in enumerate(_IDENTITIES):
        rng = np.random.default_rng([seed, index])
        cases = max(1, args.cases // divisor)
        try:
            func(rng, cases, tol)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name} (seed={seed}): {exc}")
            continue
        print(f"PASS {name} (cases={cases})")
    return EXIT_IDENTITY if failures else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ConfigError, simkit.SweepWorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_WORKER
    except (SweepNumericalError, AuditError, SingularBlockError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
