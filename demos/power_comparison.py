"""Oracle subgroup tests recover Z-test power without any randomness.

Runs a seeded power table for the one-sample location problem at n = 16
with M = 16 transformations per test: the deterministic zero-leak
subgroup test, the randomized M-draw Monte Carlo sign-flipping test, the
M-draw MC Z-test (which needs the unknown noise law!), and the t-test
benchmark. The subgroup column tracks the MC Z-test column cell by cell,
while plain MC sign-flipping trails both.
"""

import time

from nos import SimConfig, power_table

config = SimConfig(
    n=16,
    mu_grid=(0.0, 0.25, 0.5, 0.75, 1.0, 1.5),
    M_values=(16,),
    tests=("oracle-signflip", "mc-z", "mc-signflip", "t"),
    replications=50_000,
    alpha=1 / 16,
    seed=2024,
)

t0 = time.perf_counter()
report = power_table(config)
wall_clock = time.perf_counter() - t0
by_test: dict = {}
for cell in report.cells:
    by_test.setdefault(cell["test"], []).append(cell)

mus = config.mu_grid
print(f"n = {config.n}, M = 16, alpha = 1/16, {config.replications} replications\n")
print("mu:        " + "".join(f"{mu:>8.2f}" for mu in mus))
for test, cells in by_test.items():
    row = "".join(f"{c['power']:>8.3f}" for c in cells)
    print(f"{test:<11}" + row)

se = max(c["se"] for c in report.cells)
print(f"\n(max MC standard error {se:.4f}; "
      f"wall clock {wall_clock:.1f}s)")
print("Note how oracle-signflip matches mc-z everywhere: a zero-leak subgroup")
print("turns the data's own noise into the Monte Carlo sample.")
