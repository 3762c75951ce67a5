"""Multi-modes Monte Carlo run with convergence diagnostics.

Expands the random-medium solution in powers of the perturbation size
epsilon.  All modes of all samples reuse one LU factorization of the
constant-coefficient operator.  The printed decay ratios
rho_n = epsilon * ||u_n|| / ||u_{n-1}|| indicate whether the expansion
contracts; the mean field is written along the diagonal y = x.
"""
import os

from randhelm import NoiseSpec, RunConfig, export_cross_section, run_multimodes

config = RunConfig(
    k=5.0,
    epsilon=1.0 / 6.0,
    num_modes=5,
    num_samples=200,
    mesh_n=50,
    noise=NoiseSpec(low=0.0, high=1.0),
)
result = run_multimodes(config)

print(f"{'mode':>4} {'mean L2':>12} {'mean H1h':>12} {'rho':>8}")
for n in range(config.num_modes):
    rho = f"{result.rho[n - 1]:8.4f}" if n >= 1 else ""
    print(f"{n:>4} {result.mode_l2[n]:>12.4e} {result.mode_h1[n]:>12.4e} {rho:>8}")

print(
    f"\nfactorizations = {result.counters.factorizations}, "
    f"solves = {result.counters.solves}"
)
for phase, seconds in result.counters.seconds.items():
    print(f"{phase}_seconds = {seconds:.3f}")

os.makedirs("out", exist_ok=True)
export_cross_section(result.psi, path=os.path.join("out", "mean_field_diagonal.csv"))
print("\nwrote out/mean_field_diagonal.csv")
