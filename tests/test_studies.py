import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randhelm.linalg as linalg
from randhelm import (
    DGFunction,
    DGSpace,
    NoiseSpec,
    PenaltySet,
    RunConfig,
    SourceSpec,
    StudySpec,
    build_uniform_mesh,
    export_cross_section,
    export_field,
    run_full,
    compare_fields,
    run_m_scaling,
    run_manufactured_convergence,
    run_multimodes,
    solve_deterministic,
)
from randhelm.studies import (
    _write_table,
    config_from_dict,
    config_to_dict,
    parse_config,
    write_config,
)


def test_config_round_trip(tmp_path):
    cfg = RunConfig(
        k=7.25, epsilon=1.0 / 3.0, num_modes=4, num_samples=33, mesh_n=12,
        penalties=PenaltySet(gamma0=9.5, gamma_higher=(0.2,), beta1=0.05),
        noise=NoiseSpec(low=-0.75, high=0.5, seed=99),
        source=SourceSpec(kind="radial_wave"),
    )
    path = os.path.join(tmp_path, "config.txt")
    write_config(config_to_dict(cfg), path)
    back = config_from_dict(parse_config(path))
    # 17 significant digits round-trip doubles exactly.
    assert back == cfg


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)
# Noise bounds whose difference is finite too, as NoiseSpec requires.
_noise_bound = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def _run_configs(draw):
    low, high = sorted((draw(_noise_bound), draw(_noise_bound)))
    return RunConfig(
        k=draw(_positive),
        epsilon=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        num_modes=draw(st.integers(1, 50)),
        num_samples=draw(st.integers(1, 10**6)),
        mesh_n=draw(st.integers(1, 500)),
        degree=draw(st.integers(1, 4)),
        penalties=PenaltySet(
            gamma0=draw(_positive),
            gamma_higher=tuple(draw(st.lists(_nonnegative, min_size=0, max_size=3))),
            beta1=draw(_nonnegative),
        ),
        noise=NoiseSpec(low=low, high=high, seed=draw(st.integers(0, 2**64 - 1))),
        source=SourceSpec(
            kind=draw(st.sampled_from(["constant", "radial_wave"])), value=draw(_finite)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(_run_configs())
def test_config_dict_round_trip_property(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("gamma_higher", [(0.1, 0.5), ()])
def test_config_round_trip_every_gamma(tmp_path, gamma_higher):
    cfg = RunConfig(degree=2, penalties=PenaltySet(gamma_higher=gamma_higher))
    path = os.path.join(tmp_path, "config.txt")
    write_config(config_to_dict(cfg), path)
    assert config_from_dict(parse_config(path)) == cfg


def test_config_defaults_and_unknown_keys():
    assert config_from_dict({}) == RunConfig()
    assert config_from_dict({"gamma_higher": ""}).penalties.gamma_higher == ()
    with pytest.raises(ValueError, match="'epsilion'"):
        config_from_dict({"epsilion": "0.3"})
    # Study keys belong to StudySpec.from_dict only.
    with pytest.raises(ValueError, match="'study'"):
        config_from_dict({"study": "compare"})
    # A config file that still carries C0_hint fails and names the key.
    with pytest.raises(ValueError, match="unknown config key.*'C0_hint'"):
        config_from_dict({"C0_hint": "1"})


def test_parse_config_repeated_key(tmp_path):
    path = os.path.join(tmp_path, "c.txt")
    with open(path, "w") as fh:
        fh.write("epsilon=0.3\nk=5\n# k=6\nk=7\n")
    with pytest.raises(ValueError, match=r"line 4: repeated config key 'k'"):
        parse_config(path)


def test_unconvertible_values_name_their_key_and_line(tmp_path):
    with pytest.raises(ValueError, match=r"config key 'k': could not convert string to float"):
        config_from_dict({"k": "abc"})
    with pytest.raises(ValueError, match=r"config key 'N': invalid literal for int\(\)"):
        config_from_dict({"N": "2.5"})
    with pytest.raises(ValueError, match=r"config key 'gamma_higher'"):
        config_from_dict({"gamma_higher": "0.1,x"})
    path = os.path.join(tmp_path, "c.txt")
    with open(path, "w") as fh:
        fh.write("k=5\n# comment\nN=2.5\n")
    with pytest.raises(ValueError, match=r"c\.txt, line 3: cannot read config key 'N'"):
        config_from_dict(parse_config(path))
    with open(path, "w") as fh:
        fh.write("study=m_scaling\nM_values=25,x\nk=abc\n")
    with pytest.raises(ValueError, match=r"line 2: cannot read config key 'M_values'"):
        StudySpec.from_dict(parse_config(path))
    with open(path, "w") as fh:
        fh.write("study=m_scaling\nM_values=25,100\nk=abc\n")
    with pytest.raises(ValueError, match=r"line 3: cannot read config key 'k'"):
        StudySpec.from_dict(parse_config(path))


def test_parse_config_comments_and_errors(tmp_path):
    path = os.path.join(tmp_path, "c.txt")
    with open(path, "w") as fh:
        fh.write("# a comment\nk=5.0  # trailing\n\nM=10\n")
    d = parse_config(path)
    assert d == {"k": "5.0", "M": "10"}
    with open(path, "w") as fh:
        fh.write("not a key value line\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_study_spec_validation():
    base = RunConfig()
    with pytest.raises(ValueError):
        StudySpec(kind="unknown", base=base)
    with pytest.raises(ValueError):
        StudySpec(kind="m_scaling", base=base, m_values=(100, 25))
    for m_values in ((0, 4), (-3, 4)):
        with pytest.raises(ValueError, match=f"M_values must be at least 1, got {m_values[0]}"):
            StudySpec(kind="m_scaling", base=base, m_values=m_values)
    for key, name in (("mesh_sizes", "mesh_sizes"), ("N_values", "n_values")):
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got 0"):
            StudySpec(kind="compare", base=base, **{name: (0, 4)})
    for m_ref in (0, -5):
        with pytest.raises(ValueError, match=f"M_ref must be at least 1, got {m_ref}"):
            StudySpec(kind="m_scaling", base=base, m_values=(2, 4), m_ref=m_ref)
    for key, sweep in (
        ("mesh_sizes", {"mesh_sizes": (4.5, 8)}),
        ("M_values", {"m_values": (2.5, 4)}),
        ("M_values", {"m_values": (True, 4)}),
        ("N_values", {"n_values": (1, 2.5)}),
        ("M_ref", {"m_values": (2, 4), "m_ref": 64.5}),
    ):
        with pytest.raises(ValueError, match=f"^{key} .* is not an integer$"):
            StudySpec(kind="m_scaling", base=base, **sweep)
    for eps_values in ((0.1, 1.5), (-0.1, 0.2), (0.1, 1.0), (0.1, float("nan"))):
        with pytest.raises(ValueError, match=r"eps_values must lie in \[0, 1\)"):
            StudySpec(kind="epsilon_sweep", base=base, eps_values=eps_values)
    assert StudySpec(kind="epsilon_sweep", base=base, eps_values=(0.0, 0.5)).eps_values == (0.0, 0.5)
    spec = StudySpec(
        kind="m_scaling", base=base, mesh_sizes=(np.int32(4),), m_values=(np.int64(2), 4),
        n_values=(np.int64(1),), m_ref=np.int64(64),
    )
    assert spec.m_ref == 64


def test_studies_reject_empty_sweeps():
    # The spec is checked when it is built, before any study runs.
    base = RunConfig(k=5.0, mesh_n=4)
    with pytest.raises(ValueError, match="mesh_sizes must be nonempty"):
        StudySpec(kind="manufactured_convergence", base=base)
    with pytest.raises(ValueError, match="M_values needs two values or more for a slope, got 0"):
        StudySpec(kind="m_scaling", base=base)


def test_m_scaling_needs_two_values_of_m():
    # One M leaves the log-log fit rank-deficient: no slope.
    base = RunConfig(k=5.0, mesh_n=4)
    with pytest.raises(ValueError, match="M_values needs two values or more for a slope, got 1"):
        StudySpec(kind="m_scaling", base=base, m_values=(5,))


def test_study_sweeps_must_strictly_ascend():
    # A repeated value gives no rate or slope; the error names its key.
    base = RunConfig()
    for key, sweep in (
        ("mesh_sizes", {"mesh_sizes": (4, 4, 8)}),
        ("M_values", {"m_values": (5, 5)}),
        ("N_values", {"n_values": (1, 3, 3)}),
        ("eps_values", {"eps_values": (0.1, 0.1)}),
        ("M_values", {"m_values": (100, 25)}),
    ):
        with pytest.raises(ValueError, match=f"^{key} must be strictly ascending, got "):
            StudySpec(kind="compare", base=base, **sweep)


def test_study_spec_from_dict():
    d = {"study": "compare", "k": "5", "eps_values": "0.1,0.5", "N_values": "1,3"}
    spec = StudySpec.from_dict(d)
    assert spec.kind == "compare"
    assert spec.eps_values == (0.1, 0.5)
    assert spec.n_values == (1, 3)
    with pytest.raises(ValueError, match="'study'"):
        StudySpec.from_dict({"k": "5"})
    with pytest.raises(ValueError, match="'N_value'"):
        StudySpec.from_dict({"study": "compare", "N_value": "1"})


@pytest.mark.parametrize(
    "spec",
    [
        StudySpec(
            kind="compare", base=RunConfig(k=7.25), eps_values=(0.05, 1.0 / 3.0), n_values=(1, 3)
        ),
        StudySpec(
            kind="m_scaling",
            base=RunConfig(penalties=PenaltySet(gamma_higher=(0.2, 0.3, 0.4))),
            m_values=(8, 32),
            m_ref=256,
        ),
        StudySpec(kind="manufactured_convergence", base=RunConfig(), mesh_sizes=(4, 8, 16)),
        StudySpec(kind="modes_sweep", base=RunConfig(penalties=PenaltySet(gamma_higher=()))),
    ],
)
def test_study_spec_round_trip(spec):
    assert StudySpec.from_dict(spec.to_dict()) == spec


def test_solve_deterministic_finite():
    u = solve_deterministic(RunConfig(k=5.0, mesh_n=10))
    assert np.all(np.isfinite(u.coefficients))
    assert np.abs(u.coefficients).max() > 0.0


def test_manufactured_convergence_rates():
    spec = StudySpec(
        kind="manufactured_convergence",
        base=RunConfig(k=2.0, mesh_n=4),
        mesh_sizes=(4, 8, 16),
    )
    rows = run_manufactured_convergence(spec)
    assert np.isnan(rows[0]["rate_l2"])
    assert 1.5 < rows[-1]["rate_l2"] < 2.5
    assert 0.5 < rows[-1]["rate_h1"] < 1.5
    errs = [r["err_l2"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("degree", [2, 3])
def test_higher_degree_convergence_rates(degree):
    # The normal-derivative jump penalties up to the degree under
    # refinement: the last pair's rates stay near the optimal r + 1 (L2)
    # and r (broken H1).  Measured: r=2 gives 3.60 and 2.33, r=3 gives
    # 4.07 and 2.91.
    spec = StudySpec(
        kind="manufactured_convergence",
        base=RunConfig(k=5.0, degree=degree),
        mesh_sizes=(10, 20, 40),
    )
    last = run_manufactured_convergence(spec)[-1]
    assert last["rate_l2"] >= degree + 0.7
    assert last["rate_h1"] >= degree - 0.3


def test_m_scaling_requires_larger_reference():
    base = RunConfig(k=5.0, mesh_n=4, source=SourceSpec(kind="radial_wave"))
    for m_ref in (32, 64):
        with pytest.raises(ValueError, match="M_ref must exceed every M in the list"):
            StudySpec(kind="m_scaling", base=base, m_values=(16, 64), m_ref=m_ref)
    out = run_m_scaling(StudySpec(kind="m_scaling", base=base, m_values=(8, 32), m_ref=256))
    assert len(out["rows"]) == 2
    assert out["rows"][0]["err_l2"] > out["rows"][1]["err_l2"]


def test_m_scaling_slope_is_nan_when_an_error_is_zero(tmp_path):
    # A zero source gives zero fields, so every error is exactly zero and
    # the errors have no log-log slope.
    base = RunConfig(mesh_n=4, source=SourceSpec(value=0.0))
    spec = StudySpec(kind="m_scaling", base=base, m_values=(2, 4))
    out = run_m_scaling(spec)
    assert [row["err_l2"] for row in out["rows"]] == [0.0, 0.0]
    assert np.isnan(out["slope"])
    run_full(spec, tmp_path)
    with open(os.path.join(tmp_path, "report.txt")) as fh:
        assert "m_scaling_slope=nan" in fh.read().splitlines()


@pytest.mark.parametrize(
    "base, warned",
    [
        (RunConfig(mesh_n=4), True),  # the constant source
        (RunConfig(mesh_n=4, epsilon=0.0, source=SourceSpec(kind="radial_wave")), True),
        (
            RunConfig(
                mesh_n=4, noise=NoiseSpec(low=0.5, high=0.5), source=SourceSpec(kind="radial_wave")
            ),
            True,
        ),
        (RunConfig(mesh_n=4, source=SourceSpec(kind="radial_wave")), False),
    ],
)
def test_m_scaling_warns_when_mode_zero_cannot_vary(tmp_path, base, warned):
    run_full(StudySpec(kind="m_scaling", base=base, m_values=(2, 4), m_ref=5), tmp_path)
    with open(os.path.join(tmp_path, "report.txt")) as fh:
        warnings = [line for line in fh.read().splitlines() if line.startswith("warning: mode 0")]
    assert len(warnings) == warned


def test_m_scaling_rows_are_shorter_runs():
    # Each row is the error of a run of the chain's first M samples: the
    # noise is keyed by (seed, sample), so it is the chain's own prefix.
    base = RunConfig(k=5.0, epsilon=0.1, mesh_n=8, source=SourceSpec(kind="radial_wave"))
    spec = StudySpec(kind="m_scaling", base=base, m_values=(5, 16, 20, 35), m_ref=50)
    out = run_m_scaling(spec)
    phi_ref = out["result"].phis[0]
    assert out["result"].config == replace(base, num_modes=1, num_samples=50)
    for row, m in zip(out["rows"], spec.m_values, strict=True):
        short = run_multimodes(replace(base, num_modes=1, num_samples=m))
        assert row["M"] == m
        assert row["err_l2"] == compare_fields(short.phis[0], phi_ref)["abs_l2"]
        assert row["err_l2"] > 0.0


def test_write_table_text(tmp_path):
    # Integers, numpy's included, print as str prints them; floats with 17
    # significant digits, and -0.0, nan and inf as "%.17g" prints them.
    path = os.path.join(tmp_path, "table.csv")
    row = (3, np.int64(-7), 0.1, -0.0, np.nan, np.inf)
    _write_table(path, ["a", "b", "c", "d", "e", "f"], [row])
    with open(path) as fh:
        assert fh.read() == "a,b,c,d,e,f\n3,-7,0.10000000000000001,-0,nan,inf\n"


def test_export_cross_section(tmp_path):
    space = DGSpace(build_uniform_mesh(4), 1)
    f = DGFunction(space, np.full(space.ndof, 1.0 + 2.0j))
    path = os.path.join(tmp_path, "diag.csv")
    export_cross_section(f, path)
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "t,x,y,re,im,abs"
    t, x, y, re, im, mag = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    # 17 significant digits read back exactly.
    assert np.array_equal(t, np.linspace(0.0, 1.0, 201))
    assert np.array_equal(x, -0.5 + t) and np.array_equal(y, x)
    assert (x[0], x[-1]) == (-0.5, 0.5)
    assert np.abs(re - 1.0).max() <= 1e-12 and np.abs(im - 2.0).max() <= 1e-12
    assert np.array_equal(mag, np.hypot(re, im))


def test_export_field(tmp_path, rng):
    # Three rows per element, in label order: its vertices v0, v1, v2 as
    # the mesh builds them from the cell corners (lower triangle: v00, v10,
    # v11; upper: v00, v11, v01), and the field's values there.
    n = 5
    mesh = build_uniform_mesh(n)
    corners = {0: [(0, 0), (1, 0), (1, 1)], 1: [(0, 0), (1, 1), (0, 1)]}
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    path = os.path.join(tmp_path, "field.csv")
    for degree in (1, 2, 3):
        space = DGSpace(mesh, degree)
        c = rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)
        export_field(DGFunction(space, c), path)
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "x,y,element,re,im,abs"
        assert len(lines) == 1 + 3 * mesh.n_elements
        rows = [line.split(",") for line in lines[1:]]
        x, y, re, im, mag = (np.array([float(r[i]) for r in rows]) for i in (0, 1, 3, 4, 5))
        labels = np.array([int(r[2]) for r in rows])
        assert np.array_equal(labels, np.repeat(np.arange(mesh.n_elements), 3))
        basis = space.basis_values(unit)
        for e in range(mesh.n_elements):
            cy, cx = divmod(e // 2, n)
            for i, (dx, dy) in enumerate(corners[e % 2]):
                assert x[3 * e + i] == -0.5 + (1.0 / n) * (cx + dx)
                assert y[3 * e + i] == -0.5 + (1.0 / n) * (cy + dy)
            expected = basis @ c[space.dofs[e]]
            rows_e = slice(3 * e, 3 * e + 3)
            assert np.abs(re[rows_e] + 1j * im[rows_e] - expected).max() <= 1e-14
            assert np.abs(mag[rows_e] - np.abs(expected)).max() <= 1e-14


def test_run_full_plain_config(tmp_path):
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=2, num_samples=4, mesh_n=6)
    out = os.path.join(tmp_path, "run")
    run_full(cfg, out)
    for rel in (
        "config.txt",
        "report.txt",
        os.path.join("fields", "psi.csv"),
        os.path.join("fields", "sample.csv"),
        os.path.join("sections", "psi_diagonal.csv"),
        os.path.join("tables", "modes.csv"),
    ):
        assert os.path.exists(os.path.join(out, rel))


def test_report_warns_on_coarse_mesh(tmp_path):
    # k^3*h^2/r^2 = 1000/16 > 10: the warning reaches plain runs, not only
    # convergence studies.
    cfg = RunConfig(k=10.0, epsilon=0.1, num_modes=1, num_samples=2, mesh_n=4)
    out = os.path.join(tmp_path, "coarse")
    run_full(cfg, out)
    with open(os.path.join(out, "report.txt")) as fh:
        report = fh.read()
    assert "warning: mesh condition k^3*h^2/r^2 = 62.5 at n=4" in report
    run_full(replace(cfg, mesh_n=10), out)
    with open(os.path.join(out, "report.txt")) as fh:
        assert "warning" not in fh.read()


def _report_runs(path) -> list:
    """The (key, value) lines of each driver run in a report.txt; a run
    starts at its "method" line."""
    runs = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            key, _, value = line.partition("=")
            if key == "method":
                runs.append([])
            if runs:
                runs[-1].append((key, value))
    return runs


def test_report_prints_the_mesh_condition_of_every_driver_run(tmp_path):
    # k^3*h^2/r^2 = 27/16 at degree 1 and 27/64 at degree 2.
    base = RunConfig(k=3.0, epsilon=0.1, num_modes=2, num_samples=4, mesh_n=4)
    sweep = StudySpec(kind="epsilon_sweep", base=replace(base, degree=2), eps_values=(0.1, 0.2))
    for degree, config_or_spec, runs in ((1, base, 1), (2, sweep, 4)):
        out = os.path.join(tmp_path, f"r{degree}")
        run_full(config_or_spec, out)
        blocks = _report_runs(os.path.join(out, "report.txt"))
        assert len(blocks) == runs
        for block in blocks:
            values = [float(v) for key, v in block if key == "mesh_condition"]
            assert values == [27.0 / (16 * degree**2)]


def test_run_full_tables_thread_invariant(tmp_path, monkeypatch):
    # A run on the worker pool against one with its samples run inline.
    cfg = RunConfig(k=5.0, epsilon=0.1, num_modes=2, num_samples=40, mesh_n=6)
    out1 = os.path.join(tmp_path, "t1")
    out2 = os.path.join(tmp_path, "t2")
    run_full(cfg, out1)
    monkeypatch.setattr(linalg, "_worker_count", lambda pinned: None)
    run_full(cfg, out2)
    for rel in (
        "config.txt",
        os.path.join("tables", "modes.csv"),
        os.path.join("fields", "psi.csv"),
        os.path.join("sections", "psi_diagonal.csv"),
    ):
        with open(os.path.join(out1, rel), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out2, rel), "rb") as fh:
            b = fh.read()
        assert a == b, f"{rel} differs between thread counts"


_PHASES = ("setup", "assembly", "factorize", "solve", "sample_loop", "sample_loop_cpu")


def test_report_prints_each_phase_once_per_driver_run(tmp_path):
    base = RunConfig(k=3.0, epsilon=0.1, num_modes=2, num_samples=4, mesh_n=4)
    out = os.path.join(tmp_path, "sweep")
    run_full(StudySpec(kind="epsilon_sweep", base=base, eps_values=(0.1, 0.2)), out)
    report = os.path.join(out, "report.txt")
    with open(report) as fh:
        assert "_seconds_total=" not in fh.read()
    runs = _report_runs(report)
    assert len(runs) == 4  # a multi-modes and a classical run per epsilon
    for run in runs:
        keys = [key for key, _ in run]
        phases = [key for key in keys if key.endswith("_seconds")]
        assert sorted(phases) == sorted(f"{phase}_seconds" for phase in _PHASES)
        # The LU fill, once, next to the factorization count.
        assert keys.count("lu_nnz") == keys.count("factorizations") == 1
        assert keys.index("lu_nnz") == keys.index("factorizations") + 1
        assert int(dict(run)["lu_nnz"]) > 0


def test_run_full_study_kinds(tmp_path):
    base = RunConfig(k=3.0, epsilon=0.1, num_modes=2, num_samples=4, mesh_n=4)
    conv = StudySpec(kind="manufactured_convergence", base=base, mesh_sizes=(4, 8))
    run_full(conv, os.path.join(tmp_path, "conv"))
    assert os.path.exists(os.path.join(tmp_path, "conv", "tables", "convergence.csv"))

    sweep = StudySpec(kind="modes_sweep", base=base, n_values=(1, 2))
    run_full(sweep, os.path.join(tmp_path, "sweep"))
    with open(os.path.join(tmp_path, "sweep", "tables", "modes_sweep.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "N,abs_l2,rel_l2"
    assert len(lines) == 3

    comp = StudySpec(kind="compare", base=base, eps_values=(0.05, 0.1))
    run_full(comp, os.path.join(tmp_path, "comp"))
    with open(os.path.join(tmp_path, "comp", "tables", "compare.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "epsilon,N,abs_l2,rel_l2"
    assert len(lines) == 3
