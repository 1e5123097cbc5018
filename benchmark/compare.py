#!/usr/bin/env python3
"""Compare two sets of OSCAR benchmark runs, metric by metric.

    python3 benchmark/compare.py BASE NEW

BASE and NEW are directories (or single files) of run records, as
benchmark/run.py writes them (one JSON object per file, --results DIR
chooses where). Traced and smoke records are skipped.

For every workload and every end-to-end metric of BENCHMARK.json, plus
the record-only metrics below, it prints each side's median, quartiles
and run count, the change of the median, the metric's bound, and one
verdict:

  improved      better, and the claim rule holds: at least 10 pairs of
                back-to-back runs, one of each side, with the side
                that runs first alternating; NEW better in at least 9
                of 10 pairs (ties count for neither); and a median gap
                larger than BASE's interquartile range
  within bound  no worse than the bound allows (better but unclaimed
                included)
  regressed     worse than the bound allows
  unresolved    the run-to-run spread (IQR) of either side exceeds the
                bound's share of its median, unless every NEW run
                beats every BASE run

Set-up times are a few milliseconds on most workloads, so for setup_s
and first_s a change or spread below an absolute floor of 10 ms stays
within bound, whatever its share of the median.

A workload whose runs are marked "claimable": false in their records
(serve_mix: its traffic mix is unverified) is never judged improved.

nrmse.p50 is deterministic per seed, ISA and transform plan, so it is
compared per seed (NEW / BASE on the same seed) rather than by medians
of seeds. The exit code is 1 when any row regressed, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics kept out of BENCHMARK.json, which lists only metrics every
# workload reports steadily; they live in the run records, and a
# workload whose records lack one (hit_ms.* outside serve_mix) skips it.
# serve_mix's miss median is its recon_s.p50, judged with the bound of
# BENCHMARK.json, so miss_ms.p50 is not judged a second time here.
RECORD_METRICS = [
    {"name": "first_s", "better": "lower", "bound": 0.20},
    {"name": "hit_ms.p50", "better": "lower", "bound": 0.15},
    {"name": "hit_ms.p98", "better": "lower", "bound": 0.20},
    {"name": "miss_ms.p98", "better": "lower", "bound": 0.20},
    {"name": "nrmse.p50", "better": "lower", "bound": 0.02, "paired": True},
]

# Absolute floors, in the metric's unit, below which neither a change
# nor a spread counts.
FLOORS = {"setup_s": 0.010, "first_s": 0.010}


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("trace") == 0 and \
                rec.get("smoke") == 0 and "workload" in rec:
            records.append(rec)
    return records


def value(rec, name):
    for key in ("metrics", "extras"):
        if name in rec.get(key, {}):
            return rec[key][name]["value"]
    return None


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worse_by(base, new, better):
    """Relative change of the median, positive when NEW is worse."""
    change = (new - base) / base if base else 0.0
    return change if better == "lower" else -change


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def claim_holds(base_recs, new_recs, name, better):
    """choosing-metrics section 8: alternating pairs, 9/10 wins, gap."""
    runs = sorted([(r["started_unix_s"], "base", value(r, name))
                   for r in base_recs] +
                  [(r["started_unix_s"], "new", value(r, name))
                   for r in new_recs])
    # Consecutive runs form the pairs; each holds one run of each side,
    # and the side that runs first alternates from pair to pair.
    pairs = [runs[i:i + 2] for i in range(0, len(runs) - 1, 2)]
    if len(runs) % 2 or len(pairs) < 10 or \
            any({a[1], b[1]} != {"base", "new"} for a, b in pairs):
        return False
    firsts = [a[1] for a, _ in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        return False
    wins = 0
    for a, b in pairs:
        base_v, new_v = (a[2], b[2]) if a[1] == "base" else (b[2], a[2])
        wins += beats(new_v, base_v, better)
    base = [v for _, side, v in runs if side == "base"]
    new = [v for _, side, v in runs if side == "new"]
    q1, q3 = quartiles(base)
    gap = abs(statistics.median(new) - statistics.median(base))
    return wins >= 0.9 * len(pairs) and gap > q3 - q1


def verdict_medians(base_recs, new_recs, name, better, bound, claimable):
    base = [v for v in (value(r, name) for r in base_recs) if v is not None]
    new = [v for v in (value(r, name) for r in new_recs) if v is not None]
    if len(base) < 2 or len(new) < 2:
        return None
    bm, nm = statistics.median(base), statistics.median(new)

    def tolerance(median):
        return max(bound * abs(median), FLOORS.get(name, 0.0))

    too_spread = any(quartiles(v)[1] - quartiles(v)[0] > tolerance(m)
                     for v, m in ((base, bm), (new, nm)))
    worse = nm - bm if better == "lower" else bm - nm
    all_better = all(beats(n, b, better) for n in new for b in base)
    if worse < 0 and claimable and \
            claim_holds(base_recs, new_recs, name, better):
        verdict = "improved"
    elif too_spread and not all_better:
        verdict = "unresolved"
    elif worse > tolerance(bm):
        verdict = "regressed"
    else:
        verdict = "within bound"
    return base, new, worse_by(bm, nm, better), verdict


def verdict_paired(base_recs, new_recs, name, better, bound, claimable):
    by_seed = {r["seed"]: value(r, name) for r in base_recs}
    ratios = [value(r, name) / by_seed[r["seed"]] for r in new_recs
              if by_seed.get(r["seed"]) and value(r, name) is not None]
    if not ratios:
        return None
    changes = [worse_by(1.0, x, better) for x in ratios]
    change = statistics.median(changes)
    q1, q3 = quartiles(changes)
    if q3 - q1 > bound:
        verdict = "unresolved"
    elif change > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    base = [v for v in (value(r, name) for r in base_recs) if v is not None]
    new = [v for v in (value(r, name) for r in new_recs) if v is not None]
    return base, new, change, verdict


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_all, new_all = load(sys.argv[1]), load(sys.argv[2])
    rows = []
    for wl in spec["workloads"]:
        workload = wl["name"]
        base_recs = [r for r in base_all if r["workload"] == workload]
        new_recs = [r for r in new_all if r["workload"] == workload]
        if not base_recs or not new_recs:
            continue
        claimable = all(r.get("claimable", True)
                        for r in base_recs + new_recs)
        for m in spec["end_to_end"] + RECORD_METRICS:
            judge = verdict_paired if m.get("paired") else verdict_medians
            out = judge(base_recs, new_recs, m["name"], m["better"],
                        m["bound"], claimable)
            if out is None:
                continue
            base, new, change, verdict = out
            bound = f"{m['bound']:.0%}"
            if m["name"] in FLOORS:
                bound += f", >= {FLOORS[m['name']] * 1e3:g} ms"
            rows.append((workload, m["name"], fmt(base), fmt(new),
                         f"{change:+.1%}", bound, verdict))
        # A change that fails more requests regresses whatever it gains.
        frac = [sum(r["failed"] for r in recs) /
                max(1, sum(r["attempted"] for r in recs))
                for recs in (base_recs, new_recs)]
        rows.append((workload, "failed_frac", f"{frac[0]:.4g}",
                     f"{frac[1]:.4g}", "", "any increase",
                     "regressed" if frac[1] > frac[0] else "within bound"))

    header = ("workload", "metric", "base median [q1, q3] n",
              "new median [q1, q3] n", "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    verdicts = [r[-1] for r in rows]
    print(f"\n{verdicts.count('regressed')} regressed, "
          f"{verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('improved')} improved, "
          f"{len(verdicts)} rows")
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
