"""How the epoch schedules trade full gradients for stochastic ones.

The mixed-gradient solver halves its domain radius, regularization
weight, and step size each epoch while quadrupling the inner iteration
count. The result: m full-gradient calls total, with all remaining work
done by cheap single-example gradients. This script prints the schedule
table and checks the closed-form call count against live counters.
"""

import math

from mixedgrad import (
    LEAST_SQUARES, MixedGradConfig, gen_synthetic, run, theory_params,
)


def main():
    inst = gen_synthetic(seed=1, n=100, d=8, noise_sd=0.0,
                         loss_kind=LEAST_SQUARES, radius=1.0)
    beta = inst.smoothness
    t1, m = 10, 6
    cfg = MixedGradConfig(eta1=1.0 / (2 * beta * math.sqrt(3 * t1)),
                          delta1=1.0, t1=t1, epochs=m, lambda1=beta)

    print(f"schedules for T1={t1}, gamma={cfg.gamma:g}, m={m}:\n")
    print(f"{'epoch':>5} {'delta_k':>9} {'lambda_k':>9} {'eta_k':>10} "
          f"{'T_k':>8}")
    delta, lam, eta = cfg.delta1, cfg.lambda1, cfg.eta1
    total = 0
    for k in range(1, m + 1):
        t = t1 * 4 ** (k - 1)
        print(f"{k:>5} {delta:>9.4f} {lam:>9.4f} {eta:>10.5f} {t:>8}")
        total += t
        delta, lam, eta = delta / 2, lam / 2, eta / 2

    closed_form = t1 * (4 ** m - 1) // 3
    print(f"\nstochastic calls, summed:      {total}")
    print(f"stochastic calls, closed form: {closed_form}"
          f"   (T1 (4^m - 1) / 3)")

    res = run(inst, cfg, seed=0)
    print(f"live counters after a run:     "
          f"{res.counters.stochastic_calls} stochastic, "
          f"{res.counters.full_calls} full")
    assert res.counters.stochastic_calls == total == closed_form
    assert res.counters.full_calls == m

    print("\nthe high-probability parameter recipe, for comparison:")
    tcfg = theory_params(beta=beta, radius=1.0, failure_prob=0.01, epochs=m)
    print(f"  lambda1 = 16 beta = {tcfg.lambda1:.3f}, "
          f"T1 = ceil(300 ln(m/delta)) = {tcfg.t1}, "
          f"eta1 = 1/(2 beta sqrt(3 T1)) = {tcfg.eta1:.5f}")
    print("  (conservative constants: fine for guarantees, heavy for desk "
          "experiments)")


if __name__ == "__main__":
    main()
