#!/usr/bin/env python3
"""Recall regression gate shared by the storage-codec and churn benches.

Compares a freshly measured JSON (tools/recall_gate's BENCH_recall.json or
bench_churn's BENCH_churn.json) against a committed baseline. Both files
carry a map of named measurement entries — "codecs" (f32/f16/int8) or
"variants" (rebuild/churned) — each with a "recall_at_10" value.

Two kinds of check:

  exact   the --exact entry (default f32; the churn gate passes
          --exact rebuild) must match the baseline recall EXACTLY. These
          entries come from the deterministic build+search chain, so any
          drift means the pinned numbers across the repo are suspect.
  eps     every --eps KEY=VAL entry may drop at most VAL below the
          *measured* exact entry of the same run. Gating against the
          same-run reference isolates the entry's own loss (quantization
          error, churn-vs-rebuild gap) from dataset/config drift — config
          drift is caught separately by the exact-match config keys.
  near    every --near KEY=EPS entry must land within EPS of the
          BASELINE's same entry (two-sided). This is the right gate for
          entries with no same-run exact reference — bench_filtered's
          per-tier recalls are graded against per-predicate ground truth,
          so they compare to their own committed values, not to f32.
  pin     every --pin KEY names a scalar (e.g. a result or attribute
          checksum) that must equal the baseline's exactly. A plain KEY is
          top-level; a dotted KEY walks nested maps, so
          variants.full.results_checksum pins one entry's field. Pins are
          how byte-identity guarantees get wired into the gate: a checksum
          drift fails even when every recall still matches.

With no --eps flags and a "codecs" file, the legacy defaults apply:
f16=0.001 (--f16-eps) and int8=0.01 (--int8-eps), so the existing
recall-gate CI invocation runs unchanged.
"""
import argparse
import json
import sys

CONFIG_KEYS = ("dataset", "n_base", "dim", "queries", "topk", "candidate_len")


def lookup(doc, dotted):
    """Value at a dotted path through nested maps; None when absent."""
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def entries_of(doc):
    for key in ("codecs", "variants"):
        if key in doc:
            return doc[key]
    raise KeyError("no 'codecs' or 'variants' map in JSON")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("measured", help="freshly produced measurement JSON")
    ap.add_argument("baseline", nargs="?",
                    default="bench/recall_baseline.json")
    ap.add_argument("--exact", default="f32", metavar="KEY",
                    help="entry requiring an exact baseline match "
                         "(default f32; churn gate uses rebuild)")
    ap.add_argument("--eps", action="append", default=[], metavar="KEY=VAL",
                    help="entry KEY may drop at most VAL below the measured "
                         "--exact entry; repeatable")
    ap.add_argument("--near", action="append", default=[], metavar="KEY=EPS",
                    help="entry KEY must land within EPS of the baseline's "
                         "same entry (two-sided); repeatable")
    ap.add_argument("--pin", action="append", default=[], metavar="KEY",
                    help="scalar KEY (dotted for nested maps) must equal "
                         "the baseline's exactly; repeatable")
    ap.add_argument("--f16-eps", type=float, default=0.001,
                    help="legacy codec default when no --eps given")
    ap.add_argument("--int8-eps", type=float, default=0.01,
                    help="legacy codec default when no --eps given")
    args = ap.parse_args()

    with open(args.measured) as f:
        measured = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = []

    # The gate only means something if both runs measured the same thing.
    for key in CONFIG_KEYS:
        if measured.get(key) != baseline.get(key):
            failures.append(f"config mismatch on '{key}': measured "
                            f"{measured.get(key)!r} vs baseline "
                            f"{baseline.get(key)!r}")
    if failures:
        print("\ncheck_recall: FAILED", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 2

    try:
        m_entries = entries_of(measured)
        b_entries = entries_of(baseline)
    except KeyError as e:
        print(f"check_recall: {e}", file=sys.stderr)
        return 2

    eps_map = {}
    for spec in args.eps:
        key, _, val = spec.partition("=")
        if not val:
            print(f"check_recall: bad --eps '{spec}' (want KEY=VAL)",
                  file=sys.stderr)
            return 2
        eps_map[key] = float(val)
    if not eps_map and not args.near and "codecs" in measured:
        eps_map = {"f16": args.f16_eps, "int8": args.int8_eps}

    near_map = {}
    for spec in args.near:
        key, _, val = spec.partition("=")
        if not val:
            print(f"check_recall: bad --near '{spec}' (want KEY=EPS)",
                  file=sys.stderr)
            return 2
        near_map[key] = float(val)

    try:
        exact = float(m_entries[args.exact]["recall_at_10"])
        base_exact = float(b_entries[args.exact]["recall_at_10"])
        eps_recalls = {k: float(m_entries[k]["recall_at_10"])
                       for k in eps_map}
        near_pairs = {k: (float(m_entries[k]["recall_at_10"]),
                          float(b_entries[k]["recall_at_10"]))
                      for k in near_map}
    except KeyError as e:
        print(f"check_recall: missing entry {e}", file=sys.stderr)
        return 2

    for key in args.pin:
        m_val, b_val = lookup(measured, key), lookup(baseline, key)
        verdict = "OK" if m_val == b_val and m_val is not None else "DRIFT"
        print(f"{key}: {m_val!r} vs baseline {b_val!r} (pin) {verdict}")
        if verdict != "OK":
            failures.append(
                f"pinned '{key}' drifted: {m_val!r} != baseline {b_val!r}")

    # Exact entry: pure function of the deterministic simulation — drift
    # means broken determinism.
    verdict = "OK" if exact == base_exact else "DRIFT"
    print(f"{args.exact}: recall@10 {exact:.6f} vs baseline "
          f"{base_exact:.6f} (exact match required) {verdict}")
    if exact != base_exact:
        failures.append(
            f"{args.exact} recall drifted: {exact:.10f} != baseline "
            f"{base_exact:.10f} — the deterministic build/search chain "
            f"changed")

    for key in sorted(eps_map):
        eps = eps_map[key]
        drop = exact - eps_recalls[key]
        verdict = "OK" if drop <= eps else "REGRESSION"
        print(f"{key}: recall@10 {eps_recalls[key]:.6f} "
              f"(drop {drop:+.6f} vs {args.exact}, eps {eps}) {verdict}")
        if drop > eps:
            failures.append(
                f"{key} recall dropped {drop:.6f} below {args.exact} "
                f"(allowed {eps})")

    for key in sorted(near_map):
        eps = near_map[key]
        m_val, b_val = near_pairs[key]
        delta = m_val - b_val
        verdict = "OK" if abs(delta) <= eps else "REGRESSION"
        print(f"{key}: recall@10 {m_val:.6f} (baseline {b_val:.6f}, "
              f"delta {delta:+.6f}, eps {eps}) {verdict}")
        if abs(delta) > eps:
            failures.append(
                f"{key} recall moved {delta:+.6f} from its baseline "
                f"(allowed ±{eps})")

    if failures:
        print("\ncheck_recall: FAILED", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("check_recall: all recall gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
