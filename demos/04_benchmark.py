"""The benchmark surface: generated cases, algorithm comparison, CSV.

Fifteen classic structures exercise the solver: paths, cycles, stars,
pair- and triple-heavy balance profiles, and random multigraphs.  The
harness times the batch solver against the incremental ledger and
reports how hard each case worked the zero-set machinery.
"""

from debtclear import CaseSpec, format_static, generate_case, run_benchmark

# every case is reproducible: structured ones are fixed, random ones seeded
n, arcs = generate_case(CaseSpec(3))
print("case 3 as an instance file:")
print(format_static(n, arcs))

report = run_benchmark(
    [CaseSpec(t) for t in (1, 2, 3, 5, 6)],
    repetitions=3,
    mode="once",
)

print("case  algorithm            seconds  plan  nonzero  zero-sets  reduced")
for row in report.rows:
    print(
        f"{row.test_id:>4}  {row.algorithm:<20} {row.avg_seconds:7.4f}  "
        f"{row.plan_size:>4}  {row.avg_vstar:7.1f}  {row.avg_s0:9.1f}  {row.avg_s0_reduced:7.1f}"
    )

print("\nCSV form:")
print(report.to_csv())
