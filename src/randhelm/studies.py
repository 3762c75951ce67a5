"""Experiment orchestration, config parsing, and CSV/report export.

Configs are flat key=value text files.  Every floating-point value is
printed with 17 significant digits so any study can be re-run from its
emitted config echo to bit-identical tables.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .assembly import PenaltySet, get_assembler
from .classical import compare_fields, run_classical
from .linalg import lu_factorize, lu_solve
from .mesh import build_uniform_mesh
from .multimodes import RunConfig, RunResult, run_multimodes
from .randomness import NoiseSpec
from .sources import SourceSpec, source_volume
from .space import DGFunction, DGSpace

__all__ = [
    "StudySpec",
    "parse_config",
    "write_config",
    "config_from_dict",
    "config_to_dict",
    "solve_deterministic",
    "run_manufactured_convergence",
    "run_m_scaling",
    "export_cross_section",
    "export_field",
    "run_full",
]

_FMT = "%.17g"


def _fmt(x) -> str:
    return _FMT % float(x)


# -- configuration -----------------------------------------------------


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        "k": _fmt(cfg.k),
        "epsilon": _fmt(cfg.epsilon),
        "N": str(cfg.num_modes),
        "M": str(cfg.num_samples),
        "n": str(cfg.mesh_n),
        "r": str(cfg.degree),
        "gamma0": _fmt(cfg.penalties.gamma0),
        "gamma1": _fmt(cfg.penalties.gamma_j(1)),
        "beta1": _fmt(cfg.penalties.beta1),
        "seed": str(cfg.noise.seed),
        "eta_min": _fmt(cfg.noise.low),
        "eta_max": _fmt(cfg.noise.high),
        "source": cfg.source.kind,
        "source_value": _fmt(cfg.source.value),
        "C0_hint": _fmt(cfg.c0_hint),
    }


def config_from_dict(d: dict) -> RunConfig:
    pen = PenaltySet(
        gamma0=float(d.get("gamma0", 10.0)),
        gamma_higher=(float(d.get("gamma1", 0.1)),),
        beta1=float(d.get("beta1", 0.1)),
    )
    noise = NoiseSpec(
        low=float(d.get("eta_min", -1.0)),
        high=float(d.get("eta_max", 1.0)),
        seed=int(d.get("seed", 0)),
    )
    source = SourceSpec(
        kind=d.get("source", "constant"), value=float(d.get("source_value", 1.0))
    )
    return RunConfig(
        k=float(d.get("k", 5.0)),
        epsilon=float(d.get("epsilon", 0.1)),
        num_modes=int(d.get("N", 3)),
        num_samples=int(d.get("M", 100)),
        mesh_n=int(d.get("n", 20)),
        degree=int(d.get("r", 1)),
        penalties=pen,
        noise=noise,
        source=source,
        c0_hint=float(d.get("C0_hint", 1.0)),
    )


def parse_config(path) -> dict:
    """Read a flat key=value file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def write_config(d: dict, path) -> None:
    with open(path, "w") as fh:
        for key, val in d.items():
            fh.write(f"{key}={val}\n")


@dataclass(frozen=True)
class StudySpec:
    """A parameter sweep around a base configuration."""

    kind: str
    base: RunConfig
    mesh_sizes: tuple = ()
    m_values: tuple = ()
    n_values: tuple = ()
    eps_values: tuple = ()
    m_ref: int | None = None
    section_samples: int = 201

    _KINDS = ("manufactured_convergence", "m_scaling", "modes_sweep", "epsilon_sweep", "compare")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        for name in ("mesh_sizes", "m_values", "n_values", "eps_values"):
            vals = getattr(self, name)
            if list(vals) != sorted(vals):
                raise ValueError(f"{name} must be sorted ascending")

    @classmethod
    def from_dict(cls, d: dict) -> "StudySpec":
        def ints(key):
            return tuple(int(v) for v in d[key].split(",")) if key in d else ()

        def floats(key):
            return tuple(float(v) for v in d[key].split(",")) if key in d else ()

        return cls(
            kind=d["study"],
            base=config_from_dict(d),
            mesh_sizes=ints("mesh_sizes"),
            m_values=ints("M_values"),
            n_values=ints("N_values"),
            eps_values=floats("eps_values"),
            m_ref=int(d["M_ref"]) if "M_ref" in d else None,
        )


# -- deterministic solves and convergence ------------------------------


def solve_deterministic(config: RunConfig) -> DGFunction:
    """Solve the constant-coefficient problem with the configured source
    (medium fluctuations off) and homogeneous impedance data."""
    mesh = build_uniform_mesh(config.mesh_n)
    space = DGSpace(mesh, config.degree)
    asm = get_assembler(space, config.penalties)
    system = asm.constant(config.k)
    b = asm.rhs(source_volume(config.source, mesh, None, 0.0, config.k))
    x = lu_solve(lu_factorize(system), b)
    return DGFunction(space, x)


def _plane_wave_errors(n: int, k: float, degree: int, penalties: PenaltySet, theta: float):
    """Solve with impedance data of an exact plane wave; return L2/H1 errors."""
    mesh = build_uniform_mesh(n)
    space = DGSpace(mesh, degree)
    asm = get_assembler(space, penalties)
    d = np.array([np.cos(theta), np.sin(theta)])

    def exact(pts):
        return np.exp(1j * k * (pts[..., 0] * d[0] + pts[..., 1] * d[1]))

    # The plane wave solves the homogeneous Helmholtz equation, so the
    # volume load vanishes and only the impedance datum drives the solve.
    be = mesh.boundary_edges
    ub = exact(mesh.edge_points[be])
    nrm = mesh.edge_normal[be]
    G0 = 1j * k * (nrm @ d + 1.0)[:, None] * ub
    S = np.zeros(mesh.volume_weights.shape, dtype=complex)
    b = asm.rhs(S, G0)
    system = asm.constant(k)
    x = lu_solve(lu_factorize(system), b)

    uh = asm.eval_volume(x)
    ustar = exact(mesh.volume_points)
    err_l2 = np.sqrt(np.sum(mesh.volume_weights * np.abs(uh - ustar) ** 2))

    t = space.tables
    grad_h = np.einsum("eqic,ei->eqc", t.Gphys, x[space.dofs])
    grad_star = 1j * k * ustar[..., None] * d[None, None, :]
    err_h1 = np.sqrt(
        np.sum(mesh.volume_weights * np.sum(np.abs(grad_h - grad_star) ** 2, axis=-1))
    )
    norm_l2 = np.sqrt(np.sum(mesh.volume_weights * np.abs(ustar) ** 2))
    return err_l2, err_h1, err_l2 / norm_l2


def run_manufactured_convergence(spec: StudySpec, theta: float = 0.3) -> list:
    """Mesh refinement study against an analytic plane wave.

    Returns one row per mesh: {n, h, err_l2, err_h1, rel_l2, rate_l2,
    rate_h1}.  A violated resolution condition k^3 h^2 = O(1) is reported
    in the row, not raised.
    """
    if not spec.mesh_sizes:
        raise ValueError("mesh_sizes must be nonempty")
    cfg = spec.base
    rows = []
    prev = None
    for n in spec.mesh_sizes:
        el2, eh1, rel = _plane_wave_errors(n, cfg.k, cfg.degree, cfg.penalties, theta)
        row = {
            "n": n,
            "h": 1.0 / n,
            "err_l2": el2,
            "err_h1": eh1,
            "rel_l2": rel,
            "rate_l2": np.nan,
            "rate_h1": np.nan,
            "mesh_condition": cfg.k**3 / (n * n * cfg.degree**2),
        }
        if prev is not None:
            ratio = np.log(n / prev["n"])
            row["rate_l2"] = np.log(prev["err_l2"] / el2) / ratio
            row["rate_h1"] = np.log(prev["err_h1"] / eh1) / ratio
        rows.append(row)
        prev = row
    return rows


def run_m_scaling(spec: StudySpec) -> dict:
    """Statistical-error decay of the mode-0 sample mean versus M.

    Runs one long chain of m_ref samples, snapshots the running mode-0
    mean at each requested M, and fits the log-log slope of
    ||Phi_0(M) - Phi_0(m_ref)||_L2 (target -1/2).
    """
    if not spec.m_values:
        raise ValueError("m_values must be nonempty")
    m_ref = spec.m_ref or 16 * max(spec.m_values)
    if m_ref <= max(spec.m_values):
        raise ValueError("M_ref must exceed every M in the list")
    cfg = replace(spec.base, num_modes=1, num_samples=m_ref)
    res = run_multimodes(cfg, phi0_snapshot_sizes=spec.m_values)
    phi_ref = res.phis[0]
    rows = []
    for m in spec.m_values:
        err = compare_fields(res.phi0_snapshots[m], phi_ref)["abs_l2"]
        rows.append({"M": m, "err_l2": err})
    errs = np.array([r["err_l2"] for r in rows])
    if np.all(errs > 0.0):
        slope = float(
            np.polyfit(np.log(np.array(spec.m_values, float)), np.log(errs), 1)[0]
        )
    else:
        slope = 0.0
    return {"rows": rows, "slope": slope, "m_ref": m_ref}


# -- exports -----------------------------------------------------------


def export_cross_section(f: DGFunction, samples: int = 201, path=None):
    """Sample a DG field along the diagonal y = x of the domain.

    Returns CSV rows (t, x, y, re, im, abs) with t in [0, 1]; points on
    element edges are evaluated on the smaller-labeled element.
    """
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    t = np.linspace(0.0, 1.0, samples)
    pts = np.column_stack([-0.5 + t, -0.5 + t])
    vals = f.evaluate_physical(pts)
    rows = [
        (t[i], pts[i, 0], pts[i, 1], vals[i].real, vals[i].imag, abs(vals[i]))
        for i in range(samples)
    ]
    if path is not None:
        with open(path, "w") as fh:
            fh.write("t,x,y,re,im,abs\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    return rows


def export_field(f: DGFunction, path) -> None:
    """Dump nodal vertex values per element (duplicated coordinates across
    neighboring elements are intentional: the field is discontinuous)."""
    mesh = f.space.mesh
    ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with open(path, "w") as fh:
        fh.write("x,y,element,re,im,abs\n")
        for e in range(mesh.n_elements):
            vals = f.evaluate(e, ref_vertices)
            coords = mesh.element_vertices(e)
            for v in range(3):
                fh.write(
                    ",".join(
                        [
                            _fmt(coords[v, 0]),
                            _fmt(coords[v, 1]),
                            str(e),
                            _fmt(vals[v].real),
                            _fmt(vals[v].imag),
                            _fmt(abs(vals[v])),
                        ]
                    )
                    + "\n"
                )


def _write_table(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            out = []
            for v in row:
                out.append(str(v) if isinstance(v, (int, np.integer, str)) else _fmt(v))
            fh.write(",".join(out) + "\n")


# -- the full pipeline -------------------------------------------------


def run_full(config_or_spec, out_dir, threads: int = 1) -> list:
    """Run a config or study and write report, fields, sections, tables.

    Returns the list of files written.  Tables and field dumps are fully
    deterministic; wall-clock timings appear only in report.txt.  `threads`
    is accepted for compatibility and has no effect: runs are serial.
    """
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("fields", "sections", "tables"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    written = []

    def path(*parts):
        p = os.path.join(out_dir, *parts)
        written.append(p)
        return p

    report_lines = []

    if isinstance(config_or_spec, StudySpec):
        spec = config_or_spec
        echo = config_to_dict(spec.base)
        echo["study"] = spec.kind
        for key, attr in (
            ("mesh_sizes", "mesh_sizes"),
            ("M_values", "m_values"),
            ("N_values", "n_values"),
            ("eps_values", "eps_values"),
        ):
            vals = getattr(spec, attr)
            if vals:
                echo[key] = ",".join(
                    str(v) if isinstance(v, int) else _fmt(v) for v in vals
                )
        if spec.m_ref:
            echo["M_ref"] = str(spec.m_ref)
        write_config(echo, path("config.txt"))
        report_lines += [f"{k}={v}" for k, v in echo.items()]

        if spec.kind == "manufactured_convergence":
            rows = run_manufactured_convergence(spec)
            _write_table(
                path("tables", "convergence.csv"),
                ["n", "h", "err_l2", "err_h1", "rel_l2", "rate_l2", "rate_h1"],
                [
                    (r["n"], r["h"], r["err_l2"], r["err_h1"], r["rel_l2"], r["rate_l2"], r["rate_h1"])
                    for r in rows
                ],
            )
            for r in rows:
                if r["mesh_condition"] > 10.0:
                    report_lines.append(
                        f"warning: mesh condition k^3*h^2/r^2 = {_fmt(r['mesh_condition'])} at n={r['n']}"
                    )
        elif spec.kind == "m_scaling":
            out = run_m_scaling(spec)
            _write_table(
                path("tables", "m_scaling.csv"),
                ["M", "err_l2"],
                [(r["M"], r["err_l2"]) for r in out["rows"]],
            )
            report_lines.append(f"m_scaling_slope={_fmt(out['slope'])}")
        elif spec.kind == "modes_sweep":
            n_values = spec.n_values or tuple(range(1, spec.base.num_modes + 1))
            cfg = replace(spec.base, num_modes=max(n_values))
            res = run_multimodes(cfg)
            base = run_classical(cfg)
            rows = []
            for N in n_values:
                cmp = compare_fields(res.psi_truncated(N), base.psi_tilde)
                rows.append((N, cmp["abs_l2"], cmp["rel_l2"]))
            _write_table(path("tables", "modes_sweep.csv"), ["N", "abs_l2", "rel_l2"], rows)
            _append_run_report(report_lines, res)
        elif spec.kind in ("epsilon_sweep", "compare"):
            eps_values = spec.eps_values or (spec.base.epsilon,)
            n_values = spec.n_values or (spec.base.num_modes,)
            rows = []
            for eps in eps_values:
                cfg = replace(spec.base, epsilon=eps, num_modes=max(n_values))
                res = run_multimodes(cfg)
                base = run_classical(cfg)
                for N in n_values:
                    cmp = compare_fields(res.psi_truncated(N), base.psi_tilde)
                    rows.append((eps, N, cmp["abs_l2"], cmp["rel_l2"]))
            _write_table(
                path("tables", "compare.csv"), ["epsilon", "N", "abs_l2", "rel_l2"], rows
            )
    else:
        cfg = config_or_spec
        write_config(config_to_dict(cfg), path("config.txt"))
        report_lines += [f"{k}={v}" for k, v in config_to_dict(cfg).items()]
        res = run_multimodes(cfg)
        _append_run_report(report_lines, res)
        export_field(res.psi, path("fields", "psi.csv"))
        export_field(res.sample_field, path("fields", "sample.csv"))
        export_cross_section(res.psi, path=path("sections", "psi_diagonal.csv"))
        export_cross_section(res.sample_field, path=path("sections", "sample_diagonal.csv"))
        _write_table(
            path("tables", "modes.csv"),
            ["mode", "mean_l2", "mean_norm_1h", "rho"],
            [
                (n, res.mode_l2[n], res.mode_h1[n], res.rho[n - 1] if n >= 1 else np.nan)
                for n in range(cfg.num_modes)
            ],
        )

    with open(path("report.txt"), "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    return written


def _append_run_report(lines: list, res: RunResult) -> None:
    lines.append("method=multimodes")
    lines.append(f"sigma_hat={_fmt(res.sigma_hat)}")
    for n in range(len(res.mode_l2)):
        lines.append(f"mode_l2[{n}]={_fmt(res.mode_l2[n])}")
        lines.append(f"mode_norm_1h[{n}]={_fmt(res.mode_h1[n])}")
    for n, r in enumerate(res.rho, start=1):
        lines.append(f"rho[{n}]={_fmt(r)}")
    lines.append(f"factorizations={res.counters.factorizations}")
    lines.append(f"solves={res.counters.solves}")
    for key, val in res.timings.items():
        lines.append(f"{key}={_fmt(val)}")
    lines.append(f"factorize_seconds_total={_fmt(res.counters.factorize_seconds)}")
    lines.append(f"solve_seconds_total={_fmt(res.counters.solve_seconds)}")
