"""Experiment orchestration, config parsing, and CSV/report export.

Configs are flat key=value text files.  Every floating-point value is
printed with 17 significant digits so any study can be re-run from its
emitted config echo to bit-identical tables.  Every CSV goes through
`_write_table` and every report through `write_report`.
"""
from __future__ import annotations

import copy
import os
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .assembly import PenaltySet, uniform_assembler
from .classical import compare_fields, run_classical
from .linalg import lu_factorize, lu_solve
from .multimodes import RunConfig, RunResult, _integer, run_multimodes
from .sources import source_volume
from .space import DGFunction

__all__ = [
    "StudySpec",
    "parse_config",
    "write_config",
    "write_report",
    "config_from_dict",
    "config_to_dict",
    "solve_deterministic",
    "run_manufactured_convergence",
    "run_m_scaling",
    "export_cross_section",
    "export_field",
    "run_full",
]


def _fmt(v) -> str:
    """Text form of one output value: integers and strings as they are,
    tuples as comma lists, every other number with 17 significant digits."""
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    if isinstance(v, (int, np.integer, str)):
        return str(v)
    return "%.17g" % float(v)


def _split(text: str, kind) -> tuple:
    """Parse a comma list; an empty value is the empty tuple."""
    return tuple(kind(v) for v in text.split(",")) if text else ()


# -- configuration -----------------------------------------------------

# Config key -> RunConfig field, or (field, subfield) of a nested spec.
# A value is parsed to the type of the field's default; the one tuple
# field, gamma_higher, is a comma list of floats.
_CONFIG_KEYS = {
    "k": ("k",),
    "epsilon": ("epsilon",),
    "N": ("num_modes",),
    "M": ("num_samples",),
    "n": ("mesh_n",),
    "r": ("degree",),
    "gamma0": ("penalties", "gamma0"),
    "gamma_higher": ("penalties", "gamma_higher"),
    "beta1": ("penalties", "beta1"),
    "seed": ("noise", "seed"),
    "eta_min": ("noise", "low"),
    "eta_max": ("noise", "high"),
    "source": ("source", "kind"),
    "source_value": ("source", "value"),
}


def config_to_dict(cfg: RunConfig) -> dict:
    """Every field of `cfg` as text; `config_from_dict` inverts it exactly."""
    return {key: _fmt(reduce(getattr, path, cfg)) for key, path in _CONFIG_KEYS.items()}


def _parse_value(d: dict, key: str, parse):
    """parse(d[key]).  A value that does not convert is an error naming its
    key and, when `d` came from `parse_config`, its file and line."""
    try:
        return parse(d[key])
    except ValueError as exc:
        where = getattr(d, "where", {}).get(key)
        raise ValueError(
            f"{where + ': ' if where else ''}cannot read config key {key!r}: {exc}"
        ) from None


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from config text; absent keys keep their defaults."""
    unknown = [key for key in d if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    default = RunConfig()
    top, nested = {}, {}
    for key, path in _CONFIG_KEYS.items():
        if key in d:
            like = reduce(getattr, path, default)
            parse = (lambda text: _split(text, float)) if isinstance(like, tuple) else type(like)
            value = _parse_value(d, key, parse)
            if len(path) == 1:
                top[path[0]] = value
            else:
                nested.setdefault(path[0], {})[path[1]] = value
    for name, changes in nested.items():
        top[name] = replace(getattr(default, name), **changes)
    return replace(default, **top)


class _ConfigText(dict):
    """Key -> value text, as `parse_config` read it; `where[key]` names the
    file and line of each key for later errors."""

    def __init__(self):
        super().__init__()
        self.where = {}


def parse_config(path) -> dict:
    """Read a flat key=value file; '#' starts a comment.  A malformed line
    or a repeated key is an error naming its line, and so is a value that
    `config_from_dict` or `StudySpec.from_dict` cannot convert."""
    out = _ConfigText()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}, line {lineno}: malformed config line {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}, line {lineno}: repeated config key {key!r}")
            out[key] = val
            out.where[key] = f"{path}, line {lineno}"
    return out


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_config(d: dict, path) -> None:
    _write_lines(path, (f"{key}={val}" for key, val in d.items()))


# Study key -> (StudySpec field, parser).
_STUDY_KEYS = {
    "mesh_sizes": ("mesh_sizes", lambda s: _split(s, int)),
    "M_values": ("m_values", lambda s: _split(s, int)),
    "N_values": ("n_values", lambda s: _split(s, int)),
    "eps_values": ("eps_values", lambda s: _split(s, float)),
    "M_ref": ("m_ref", int),
}


@dataclass(frozen=True)
class StudySpec:
    """A parameter sweep around a base configuration, checked in full when
    it is built, so that a study fails before it runs or writes."""

    kind: str
    base: RunConfig
    mesh_sizes: tuple = ()
    m_values: tuple = ()
    n_values: tuple = ()
    eps_values: tuple = ()
    m_ref: int | None = None

    _KINDS = ("manufactured_convergence", "m_scaling", "modes_sweep", "epsilon_sweep", "compare")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        for key in ("mesh_sizes", "M_values", "N_values"):
            for value in getattr(self, _STUDY_KEYS[key][0]):
                if _integer(value, key) < 1:
                    raise ValueError(f"{key} must be at least 1, got {value}")
        if self.m_ref is not None and _integer(self.m_ref, "M_ref") < 1:
            raise ValueError(f"M_ref must be at least 1, got {self.m_ref}")
        for eps in self.eps_values:
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"eps_values must lie in [0, 1), got {eps}")
        for key in ("mesh_sizes", "M_values", "N_values", "eps_values"):
            vals = getattr(self, _STUDY_KEYS[key][0])
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{key} must be strictly ascending, got {_fmt(tuple(vals))}")
        if self.kind == "manufactured_convergence" and not self.mesh_sizes:
            raise ValueError("mesh_sizes must be nonempty")
        if self.kind == "m_scaling":
            if (count := len(self.m_values)) < 2:
                raise ValueError(f"M_values needs two values or more for a slope, got {count}")
            if self.m_ref is not None and self.m_ref <= max(self.m_values):
                raise ValueError("M_ref must exceed every M in the list")

    @classmethod
    def from_dict(cls, d: dict) -> "StudySpec":
        """The `study` key, the sweep keys, and run keys for the base config."""
        if "study" not in d:
            raise ValueError("study config must contain a 'study' key")
        sweep = {
            name: _parse_value(d, key, parse)
            for key, (name, parse) in _STUDY_KEYS.items()
            if key in d
        }
        run = copy.copy(d)  # keeps parse_config's line of each key
        for key in ("study", *_STUDY_KEYS):
            run.pop(key, None)
        return cls(kind=d["study"], base=config_from_dict(run), **sweep)

    def to_dict(self) -> dict:
        """The inverse of `from_dict`; empty sweep lists are left out."""
        d = config_to_dict(self.base)
        d["study"] = self.kind
        for key, (name, _) in _STUDY_KEYS.items():
            value = getattr(self, name)
            if value not in ((), None):
                d[key] = _fmt(value)
        return d


# -- deterministic solves and convergence ------------------------------


def solve_deterministic(config: RunConfig) -> DGFunction:
    """Solve the constant-coefficient problem with the configured source
    (medium fluctuations off) and homogeneous impedance data, on the kept
    set-up of `uniform_assembler`."""
    asm = uniform_assembler(config.mesh_n, config.degree, config.penalties)
    b = asm.rhs(source_volume(config.source, asm.mesh, None, 0.0, config.k))
    x = lu_solve(lu_factorize(asm.constant(config.k)), b)
    return DGFunction(asm.space, x)


_THETA = 0.3  # direction of the manufactured plane wave, in radians


def _plane_wave_errors(n: int, k: float, degree: int, penalties: PenaltySet):
    """Solve with impedance data of an exact plane wave; return L2/H1 errors."""
    asm = uniform_assembler(n, degree, penalties)
    mesh, space = asm.mesh, asm.space
    d = np.array([np.cos(_THETA), np.sin(_THETA)])

    def exact(pts):
        return np.exp(1j * k * (pts[..., 0] * d[0] + pts[..., 1] * d[1]))

    # The plane wave solves the homogeneous Helmholtz equation, so the
    # volume load vanishes and only the impedance datum drives the solve.
    be = mesh.boundary_edges
    ub = exact(mesh.edge_points[be])
    nrm = mesh.edge_normal[be]
    G0 = 1j * k * (nrm @ d + 1.0)[:, None] * ub
    S = np.zeros(mesh.volume_weights.shape)
    x = lu_solve(lu_factorize(asm.constant(k)), asm.rhs(S, G0))

    uh = DGFunction(space, x).volume_values()
    ustar = exact(mesh.volume_points)
    err_l2 = np.sqrt(np.sum(mesh.volume_weights * np.abs(uh - ustar) ** 2))

    grad_h = np.einsum("eqic,ei->eqc", space.tables.Gphys, x[space.dofs])
    grad_star = 1j * k * ustar[..., None] * d[None, None, :]
    err_h1 = np.sqrt(
        np.sum(mesh.volume_weights * np.sum(np.abs(grad_h - grad_star) ** 2, axis=-1))
    )
    norm_l2 = np.sqrt(np.sum(mesh.volume_weights * np.abs(ustar) ** 2))
    return err_l2, err_h1, err_l2 / norm_l2


def run_manufactured_convergence(spec: StudySpec) -> list:
    """Mesh refinement study against an analytic plane wave.

    Returns one row per mesh: {n, h, err_l2, err_h1, rel_l2, rate_l2,
    rate_h1}.  A violated resolution condition k^3 h^2 = O(1) is not
    raised; `run_full` warns of it in the report.
    """
    cfg = spec.base
    rows = []
    prev = None
    for n in spec.mesh_sizes:
        el2, eh1, rel = _plane_wave_errors(n, cfg.k, cfg.degree, cfg.penalties)
        row = {
            "n": n,
            "h": 1.0 / n,
            "err_l2": el2,
            "err_h1": eh1,
            "rel_l2": rel,
            "rate_l2": np.nan,
            "rate_h1": np.nan,
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

    Runs one chain of m_ref samples and, for each requested M, a run of
    its first M samples (the noise of a sample depends only on the seed
    and the sample's index), and fits the log-log slope of
    ||Phi_0(M) - Phi_0(m_ref)||_L2 (target -1/2), which needs at least two
    values of M.  Returns the rows {M, err_l2}, the "slope", which is nan
    when an error is zero (no logarithm), and the chain's RunResult as
    "result".  Where mode 0 cannot vary between samples the errors are
    rounding; `run_full` then warns in the report.
    """
    m_ref = 16 * max(spec.m_values) if spec.m_ref is None else spec.m_ref
    cfg = replace(spec.base, num_modes=1, num_samples=m_ref)
    res = run_multimodes(cfg)
    rows = []
    for m in spec.m_values:
        phi0 = run_multimodes(replace(cfg, num_samples=m)).phis[0]
        rows.append({"M": m, "err_l2": compare_fields(phi0, res.phis[0])["abs_l2"]})
    errs = np.array([r["err_l2"] for r in rows])
    slope = np.nan
    if np.all(errs > 0.0):
        slope = float(
            np.polyfit(np.log(np.array(spec.m_values, float)), np.log(errs), 1)[0]
        )
    return {"rows": rows, "slope": slope, "result": res}


# -- exports -----------------------------------------------------------


def _write_table(path, header, rows) -> None:
    """Write one CSV: a header line, then one line per row with every value
    to 17 significant digits, which prints the tables' integers as `_fmt`
    does."""
    line = ",".join(["%.17g"] * len(header))
    _write_lines(path, [",".join(header), *(line % tuple(row) for row in rows)])


def export_cross_section(f: DGFunction, path) -> None:
    """Write a DG field at 201 points of the diagonal y = x of the domain.

    One CSV row (t, x, y, re, im, abs) per point, t in [0, 1]; points on
    element edges are evaluated on the smaller-labeled element.
    """
    t = np.linspace(0.0, 1.0, 201)
    pts = np.column_stack([-0.5 + t, -0.5 + t])
    vals = f.evaluate_physical(pts)
    # hypot rounds |v| as abs() of a complex scalar does; np.abs may not.
    rows = zip(t, pts[:, 0], pts[:, 1], vals.real, vals.imag, np.hypot(vals.real, vals.imag))
    _write_table(path, ["t", "x", "y", "re", "im", "abs"], rows)


def export_field(f: DGFunction, path) -> None:
    """Dump the values at the vertices of each element (duplicated coordinates
    across neighboring elements are intentional: the field is discontinuous)."""
    mesh = f.space.mesh
    elements = np.repeat(np.arange(mesh.n_elements), 3)
    vals = f.evaluate(elements, np.tile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], (mesh.n_elements, 1)))
    xy = mesh.vertices[mesh.elements].reshape(-1, 2)
    rows = zip(xy[:, 0], xy[:, 1], elements, vals.real, vals.imag, np.hypot(vals.real, vals.imag))
    _write_table(path, ["x", "y", "element", "re", "im", "abs"], rows)


def _mesh_condition(k: float, n: int, r: int) -> float:
    """The discretization number k^3*h^2/r^2 at h = 1/n."""
    return k**3 / (n * n * r**2)


def _resolution_warning(k: float, n: int, r: int) -> list:
    """A warning line when k^3*h^2/r^2 > 10, where pollution sets in."""
    condition = _mesh_condition(k, n, r)
    if condition <= 10.0:
        return []
    return [f"warning: mesh condition k^3*h^2/r^2 = {_fmt(condition)} at n={n}"]


def _result_lines(res) -> list:
    """Report lines of one run of either driver (RunResult or BaselineResult)."""
    multi = isinstance(res, RunResult)
    lines = [f"method={'multimodes' if multi else 'classical'}"]
    if multi:
        for n in range(len(res.mode_l2)):
            lines.append(f"mode_l2[{n}]={_fmt(res.mode_l2[n])}")
            lines.append(f"mode_norm_1h[{n}]={_fmt(res.mode_h1[n])}")
        lines += [f"rho[{n}]={_fmt(r)}" for n, r in enumerate(res.rho, start=1)]
    c = res.counters
    lines += [f"factorizations={c.factorizations}", f"lu_nnz={c.lu_nnz}", f"solves={c.solves}"]
    # Phases timed on the worker threads are summed over them, so they can
    # exceed sample_loop_seconds.
    lines += [f"{phase}_seconds={_fmt(s)}" for phase, s in c.seconds.items()]
    cfg = res.config
    lines.append(f"mesh_condition={_fmt(_mesh_condition(cfg.k, cfg.mesh_n, cfg.degree))}")
    return lines + _resolution_warning(cfg.k, cfg.mesh_n, cfg.degree)


def write_report(path, echo: dict, lines) -> None:
    """Write report.txt: the config echo, then `lines` (study results and
    the `_result_lines` of each driver run).  Wall-clock timings appear
    only here."""
    _write_lines(path, [*(f"{key}={val}" for key, val in echo.items()), *lines])


# -- the full pipeline -------------------------------------------------


def _compare_sweep(base: RunConfig, eps_values, n_values, report: list) -> list:
    """Multi-modes against classical at each epsilon, truncated at each N.

    Returns rows (epsilon, N, abs_l2, rel_l2) and appends the report lines
    of both driver runs of every epsilon to `report`.
    """
    rows = []
    for eps in eps_values:
        cfg = replace(base, epsilon=eps, num_modes=max(n_values))
        res = run_multimodes(cfg)
        ref = run_classical(cfg)
        report += _result_lines(res) + _result_lines(ref)
        for N in n_values:
            cmp = compare_fields(res.psi_truncated(N), ref.psi_tilde)
            rows.append((eps, N, cmp["abs_l2"], cmp["rel_l2"]))
    return rows


def run_full(config_or_spec, out_dir) -> None:
    """Run a config or study and write report, fields, sections, tables.

    Tables and field dumps are fully deterministic, whatever the
    scheduling or core count; the seconds of each driver run's phases
    appear only in report.txt.
    """
    for sub in ("fields", "sections", "tables"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    path = partial(os.path.join, out_dir)

    spec = config_or_spec if isinstance(config_or_spec, StudySpec) else None
    echo = spec.to_dict() if spec else config_to_dict(config_or_spec)
    write_config(echo, path("config.txt"))
    report = []

    if spec is None:
        cfg = config_or_spec
        res = run_multimodes(cfg)
        report += _result_lines(res)
        export_field(res.psi, path("fields", "psi.csv"))
        export_field(res.sample_field, path("fields", "sample.csv"))
        export_cross_section(res.psi, path("sections", "psi_diagonal.csv"))
        export_cross_section(res.sample_field, path("sections", "sample_diagonal.csv"))
        _write_table(
            path("tables", "modes.csv"),
            ["mode", "mean_l2", "mean_norm_1h", "rho"],
            [
                (n, res.mode_l2[n], res.mode_h1[n], res.rho[n - 1] if n >= 1 else np.nan)
                for n in range(cfg.num_modes)
            ],
        )
    elif spec.kind == "manufactured_convergence":
        rows = run_manufactured_convergence(spec)
        keys = ["n", "h", "err_l2", "err_h1", "rel_l2", "rate_l2", "rate_h1"]
        _write_table(
            path("tables", "convergence.csv"), keys, [[r[key] for key in keys] for r in rows]
        )
        for r in rows:
            report += _resolution_warning(spec.base.k, r["n"], spec.base.degree)
    elif spec.kind == "m_scaling":
        out = run_m_scaling(spec)
        _write_table(
            path("tables", "m_scaling.csv"),
            ["M", "err_l2"],
            [(r["M"], r["err_l2"]) for r in out["rows"]],
        )
        report.append(f"m_scaling_slope={_fmt(out['slope'])}")
        cfg = spec.base
        if cfg.source.kind == "constant" or cfg.epsilon == 0.0 or cfg.noise.low == cfg.noise.high:
            report.append(
                "warning: mode 0 is the same in every sample (constant source, epsilon=0"
                " or eta_min=eta_max), so the M-scaling errors are rounding noise"
            )
        report += _result_lines(out["result"])
    elif spec.kind == "modes_sweep":
        n_values = spec.n_values or tuple(range(1, spec.base.num_modes + 1))
        rows = _compare_sweep(spec.base, (spec.base.epsilon,), n_values, report)
        _write_table(
            path("tables", "modes_sweep.csv"), ["N", "abs_l2", "rel_l2"], [r[1:] for r in rows]
        )
    else:  # epsilon_sweep, compare
        rows = _compare_sweep(
            spec.base,
            spec.eps_values or (spec.base.epsilon,),
            spec.n_values or (spec.base.num_modes,),
            report,
        )
        _write_table(path("tables", "compare.csv"), ["epsilon", "N", "abs_l2", "rel_l2"], rows)

    write_report(path("report.txt"), echo, report)
