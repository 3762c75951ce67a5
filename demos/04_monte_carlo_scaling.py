"""Statistical error of the mode-0 sample mean versus the sample count.

One long chain of samples is run with a single factorization, and so
is a run of its first M samples for each requested M; each shorter
run's mean is compared with the full-chain reference.  The log-log
slope should be near -1/2.  The radial source is used because it
depends on the sampled medium; a deterministic source would make mode 0
noise-free.
"""
from randhelm import RunConfig, SourceSpec, StudySpec, run_m_scaling

spec = StudySpec(
    kind="m_scaling",
    base=RunConfig(
        k=5.0, epsilon=1.0 / 6.0, mesh_n=20, source=SourceSpec(kind="radial_wave")
    ),
    m_values=(25, 100, 400, 1600),
    m_ref=6400,
)
out = run_m_scaling(spec)

print(f"{'M':>6} {'L2 error vs reference':>22}")
for row in out["rows"]:
    print(f"{row['M']:>6} {row['err_l2']:>22.6e}")
print(f"\nlog-log slope = {out['slope']:.3f} (target -0.5)")
