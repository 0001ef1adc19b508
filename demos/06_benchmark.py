"""A small replication benchmark: settings x replicates with eBIC tuning.

Every replicate generates its own instance and data from a derived seed,
so the whole table is reproducible byte for byte.  The same harness runs
from the command line:

    birkdag benchmark --spec spec.json --out results.csv
"""

from birkdag import BenchmarkSpec, TuningGrid, run_benchmark
from birkdag.metrics import benchmark_csv

spec = BenchmarkSpec(
    settings=((15, 15), (15, 30)),
    n=200,
    reps=5,
    grid=TuningGrid(lambdas=(0.15, 0.25, 0.4), gammas=(2.0,)),
    seed=2024,
    outer_k_max=8,
)
rows = run_benchmark(spec)
print(benchmark_csv(rows))

for r in rows:
    if r["rep"] == "mean":
        print(f"({r['setting_p']},{r['setting_s']}): "
              f"TPR={r['tpr']:.3f} FPR={r['fpr']:.4f} SHD={r['shd']:.1f}")
