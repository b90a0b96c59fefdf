"""Walkthrough: risk-set score statistics and their pairwise identities.

The sign-exit members of the family are weighted score statistics from a
hazard model with an entry-derived covariate, computed from risk sets. This
script evaluates both sides of the identities on random data, including the
rank-in-risk-set covariate whose score equals half the sign/sign pair sum
over comparable pairs. The identities are exact only without ties: the
covariate form needs distinct exits, the rank form distinct entries and
distinct exits. The continuous times drawn here have no ties.
"""

import numpy as np

from qitest import (
    Dataset,
    Kernel,
    cox_score_covariate,
    cox_score_rankstar,
    u_numerator,
)

rng = np.random.default_rng(11)
n = 150
entry = rng.exponential(1.0, n)
failure = entry + rng.exponential(2.0, n)
cens = entry + rng.exponential(3.0, n)
data = Dataset(entry, np.minimum(failure, cens), (failure <= cens).astype(int))
print(f"random cohort: n={n}, censored fraction {data.censored_fraction:.2f}")
print()

print("covariate a(entry): score via risk sets vs the pairwise form")
print(f"{'transform':10s} {'risk-set score':>15s} {'pairwise form':>15s} {'rel diff':>10s}")
for name, a in (("identity", lambda x: x), ("exp", np.exp), ("cube", lambda x: x**3)):
    score = cox_score_covariate(data, a)
    pairwise = cox_score_covariate(data, a, method="pairwise")
    rel = abs(score - pairwise) / max(1.0, abs(pairwise))
    print(f"{name:10s} {score:15.6f} {pairwise:15.6f} {rel:10.2e}")
print()

score = cox_score_rankstar(data)
half_pair = 0.5 * u_numerator(data, Kernel.SIGN, Kernel.SIGN, censored_mode=True)
print("rank-in-risk-set covariate:")
print(f"  risk-set score          {score:12.6f}")
print(f"  half the sign/sign sum  {half_pair:12.6f}")
print()
print("Each pair of forms agrees to floating-point accuracy. Both covariate")
print("forms sum a_i - a_j over failures i and partners j with L_j < T_i and")
print("are counted by binary search in O(n log n); they differ only in ties:")
print("the risk-set score keeps partners with T_j >= T_i, the pairwise form")
print("T_j > T_i. The direct risk-set scan is the definitional oracle (pass")
print("method='direct' to use it).")
