"""Statistical error of the mode-0 sample mean versus the sample count.

One long chain of samples is run with a single factorization, and so
is a run of its first M samples for each requested M; each shorter
run's mean is compared with the full-chain reference.  Acceptance
criterion 10 accepts a log-log slope in [-0.65, -0.35] over M = 25-400.
Every error comes from one chain with one noise seed, so each slope is
one draw and carries that draw's noise.  The radial source is used
because it depends on the sampled medium; a deterministic source would
make mode 0 noise-free.
"""
import numpy as np

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
rows = out["rows"]

print(f"{'M':>6} {'L2 error vs reference':>22}")
for row in rows:
    print(f"{row['M']:>6} {row['err_l2']:>22.6e}")
ms, errs = np.array([(r["M"], r["err_l2"]) for r in rows if r["M"] <= 400]).T
slope_400 = np.polyfit(np.log(ms), np.log(errs), 1)[0]
seed = spec.base.noise.seed
print(f"\nlog-log slope, M = 25-400:  {slope_400:.3f} (criterion 10 window [-0.65, -0.35])")
print(f"log-log slope, M = 25-1600: {out['slope']:.3f}")
print(f"Both slopes come from one chain with noise seed {seed}, not from an average over seeds.")
