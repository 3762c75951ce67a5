"""Command-line entry points.

Subcommands: mesh-info, solve-det, run-modes, run-classical, compare,
study.  All numeric output uses 17 significant digits; files are written
by the output functions of `studies`.  Outputs do not depend on
scheduling, core count or OpenBLAS's thread count: every SuperLU call
runs on one BLAS thread (`linalg.single_blas_thread`).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .classical import run_classical
from .mesh import build_uniform_mesh
from .studies import (
    StudySpec,
    _compare_sweep,
    _fmt,
    _result_lines,
    _write_table,
    config_from_dict,
    config_to_dict,
    export_cross_section,
    export_field,
    parse_config,
    run_full,
    solve_deterministic,
    write_config,
    write_report,
)


def _load_config(path):
    return config_from_dict(parse_config(path))


def _cmd_mesh_info(args) -> int:
    mesh = build_uniform_mesh(args.n)
    print(f"n={mesh.n}")
    print(f"elements={mesh.n_elements}")
    print(f"vertices={mesh.n_vertices}")
    print(f"edges={mesh.n_edges}")
    print(f"interior_edges={mesh.interior_edges.size}")
    print(f"boundary_edges={mesh.boundary_edges.size}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_table(os.path.join(args.out, "vertices.csv"), ["x", "y"], mesh.vertices)
        _write_table(os.path.join(args.out, "elements.csv"), ["v0", "v1", "v2"], mesh.elements)
    return 0


def _cmd_solve_det(args) -> int:
    cfg = _load_config(args.config)
    u = solve_deterministic(cfg)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        export_field(u, os.path.join(args.out, "field.csv"))
        export_cross_section(u, path=os.path.join(args.out, "diagonal.csv"))
        write_config(config_to_dict(cfg), os.path.join(args.out, "config.txt"))
    print(f"ndof={u.space.ndof}")
    print(f"max_abs={_fmt(np.abs(u.coefficients).max())}")
    return 0


def _cmd_run_modes(args) -> int:
    cfg = _load_config(args.config)
    run_full(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run_classical(args) -> int:
    cfg = _load_config(args.config)
    res = run_classical(cfg)
    os.makedirs(args.out, exist_ok=True)
    export_field(res.psi_tilde, os.path.join(args.out, "psi_classical.csv"))
    echo = config_to_dict(cfg)
    write_config(echo, os.path.join(args.out, "config.txt"))
    write_report(os.path.join(args.out, "report.txt"), echo, _result_lines(res))
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    ((_, _, abs_l2, rel_l2),) = _compare_sweep(cfg, (cfg.epsilon,), (cfg.num_modes,), [])
    cmp = {"abs_l2": abs_l2, "rel_l2": rel_l2}
    for key, val in cmp.items():
        print(f"{key}={_fmt(val)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_table(os.path.join(args.out, "compare.csv"), list(cmp), [cmp.values()])
    return 0


def _cmd_study(args) -> int:
    run_full(StudySpec.from_dict(parse_config(args.config)), args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randhelm",
        description="Monte Carlo IP-DG Helmholtz solver for weakly random media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", help="print mesh counts, optionally dump geometry")
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mesh_info)

    for name, func, needs_out in (
        ("solve-det", _cmd_solve_det, False),
        ("run-modes", _cmd_run_modes, True),
        ("run-classical", _cmd_run_classical, True),
        ("compare", _cmd_compare, False),
        ("study", _cmd_study, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=needs_out, default=None)
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # nonzero exit with a message on any module error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
