"""One pass, O(d^2) memory: the streaming estimators against their batch
Weiszfeld counterparts on the same sample.

The streaming pair (geometric median + median covariation matrix) sees
each observation exactly once and keeps only a handful of d-vectors and
d x d matrices.  The Weiszfeld solvers get the full sample and iterate
to the empirical optimum.  On clean data the two agree closely; the
streaming state also serializes to a snapshot whose size does not depend
on how much data has flowed through.
"""

import json
import os
import tempfile

import numpy as np

from medcov import (
    MedianCovariationSGD,
    ScenarioConfig,
    calibrated_schedules,
    draw_sample,
    eigenspace_error,
    save_snapshot,
    top_q_projector,
    weiszfeld_mcm,
    weiszfeld_median,
)

d, n = 20, 5000
x = draw_sample(ScenarioConfig(d=d, seed=1), n)

# --- streaming: one pass, no storage of x required ------------------------
ms, cs = calibrated_schedules(d)
stream = MedianCovariationSGD(d, median_schedule=ms, cov_schedule=cs)
for row in x:
    stream.update(row)

# --- batch: full-sample fixed-point iterations -----------------------------
m_batch = weiszfeld_median(x)
g_batch = weiszfeld_mcm(x, m_batch)

print(f"sample: d={d}, n={n} (clean Brownian-path Gaussian)")
print(f"median gap      |m_stream - m_batch|  = "
      f"{np.linalg.norm(stream.median_estimate - m_batch):.4f}")
print(f"MCM gap         |V_stream - V_batch|F = "
      f"{np.linalg.norm(stream.estimate - g_batch):.4f}  "
      f"(|V_batch|F = {np.linalg.norm(g_batch):.3f})")

q = 2
r = eigenspace_error(top_q_projector(stream.estimate, q), top_q_projector(g_batch, q))
print(f"top-{q} eigenspace disagreement R     = {r:.6f}  (max possible {2*q})")

# --- the whole streaming state fits in a small flat file -------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "state.json")
    save_snapshot(stream.state_dict(), path)
    size = os.path.getsize(path)
    keys = list(json.load(open(path)).keys())
print(f"snapshot: {size} bytes, fields {keys}")
print("The snapshot holds counters and matrices only -- stream 10x more")
print("rows through and it stays the same size, which is the point of")
print("the one-pass design.")
