#!/usr/bin/env python3
"""Run the bench gates and check their JSON against the committed baselines.

    python3 scripts/check_bench.py [--build-dir DIR] bench/*_baseline.json
    python3 scripts/check_bench.py --self-test

Each bench/*_baseline.json holds what its gate bench measured at the gate
config, plus a "gate" block saying how to rerun and check it:

    "binary"  the bench, relative to the build dir
    "env"     environment for every run (the gate config)
    "vary"    optional {VAR: [values]}: one run per value, in order
    "checks"  list of {"kind": ..., "paths": [...], ...}

Each run writes DIR/BENCH_<name>[_<value>].json through ALGAS_BENCH_OUT.
Checks against the baseline use the first run. The kinds:

    equal             equals the baseline (config keys, exact recalls, pins)
    near              within "eps" of the baseline, either side
    max_drop          at most "eps" below the value at "ref" in the same run
    floor             at least (1 - "tolerance") x the baseline
    true              true in every run
    same_across_runs  every run equals the first at "paths"; without
                      "paths", the whole file must be byte-identical
    informational     printed next to the baseline, never fails

A path is dotted; each segment is an fnmatch pattern over object keys or
list indices, so "variants.graph_*.recall_at_10" and "scaling.*.monotonic"
name several values. A path that matches nothing in the baseline or in a
run fails its gate, and so does a bench that exits nonzero. Every gate runs
even after one fails; the exit status is 1 if any gate failed.

--self-test runs no bench. It checks every committed baseline against
copies of itself, which must pass, and then against seeded violations, one
per check kind, each of which must fail. It also fails on a baseline key
ending in "checksum" that no check other than "informational" reads: a pin
nothing compares means nothing.
"""
import argparse
import copy
import fnmatch
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve(doc, path):
    """{concrete path: value} for every value `path` matches in `doc`."""
    found = [("", doc)]
    for pattern in path.split(".") if path else []:
        found = [(f"{at}.{key}" if at else key, value)
                 for at, parent in found
                 for key, value in children(parent)
                 if fnmatch.fnmatchcase(key, pattern)]
    return dict(found)


def children(value):
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [(str(i), item) for i, item in enumerate(value)]
    return []


def judge(check, base, values, first_run):
    """(ok, detail) for one concrete path: baseline value, one per run."""
    kind, got = check["kind"], values[0]
    if kind == "equal":
        return got == base, f"{got!r} vs baseline {base!r}"
    if kind == "near":
        delta = got - base
        return (abs(delta) <= check["eps"],
                f"{got!r} vs baseline {base!r}, delta {delta:+.6f}, "
                f"eps {check['eps']}")
    if kind == "max_drop":
        refs = list(resolve(first_run, check["ref"]).values())
        if len(refs) != 1:
            return False, f"ref {check['ref']} matches {len(refs)} values"
        drop = refs[0] - got
        return (drop <= check["eps"],
                f"{got!r}, drop {drop:+.6f} below {check['ref']}, "
                f"eps {check['eps']}")
    if kind == "floor":
        floor = (1.0 - check["tolerance"]) * base
        return (got >= floor,
                f"{got:,.0f} vs baseline {base:,.0f}, floor {floor:,.0f}")
    if kind == "true":
        return all(v is True for v in values), f"{values!r}"
    if kind == "same_across_runs":
        return all(v == got for v in values), f"{values!r}"
    if kind == "informational":
        return True, f"{got!r} vs baseline {base!r}"
    return False, f"unknown check kind {kind!r}"


def check_gate(baseline, texts):
    """Apply the baseline's checks to the runs' JSON texts.

    Returns one (ok, message) per value checked; messages start with the
    check kind.
    """
    runs = [json.loads(text) for text in texts]
    results = []
    for check in baseline["gate"]["checks"]:
        kind = check["kind"]
        if kind == "same_across_runs" and "paths" not in check:
            for i, text in enumerate(texts[1:], start=2):
                results.append((text == texts[0],
                                f"{kind}: whole file, run {i} vs run 1"))
            continue
        for pattern in check["paths"]:
            base = resolve(baseline, pattern)
            found = [resolve(run, pattern) for run in runs]
            paths = dict.fromkeys([*base, *(p for f in found for p in f)])
            if not paths:
                results.append((False, f"{kind}: {pattern}: matches nothing"))
            for path in paths:
                missing = ["the baseline"] if path not in base else []
                missing += [f"run {i}" for i, f in enumerate(found, start=1)
                            if path not in f]
                if missing:
                    results.append((False, f"{kind}: {path}: missing from "
                                           f"{', '.join(missing)}"))
                    continue
                ok, detail = judge(check, base[path],
                                   [f[path] for f in found], runs[0])
                results.append((ok, f"{kind}: {path}: {detail}"))
    return results


def unread_checksums(baseline):
    """Baseline keys ending in "checksum" that no check can fail on."""
    read = [path for check in baseline["gate"]["checks"]
            if check["kind"] != "informational"
            for pattern in check.get("paths", [])
            for path in resolve(baseline, pattern)]

    def walk(value, at):
        for key, child in children(value):
            path = f"{at}.{key}" if at else key
            if path != "gate":
                yield path
                yield from walk(child, path)

    return [path for path in walk(baseline, "")
            if path.rpartition(".")[2].endswith("checksum")
            and not any(path == r or path.startswith(r + ".") for r in read)]


def varied(gate):
    """(env var, its values) of the gate's runs; (None, [None]) for one run."""
    return next(iter(gate.get("vary", {None: [None]}).items()))


def run_gate(name, gate, build_dir):
    """Run the gate's bench once per varied value; return (texts, errors)."""
    binary = os.path.join(build_dir, gate["binary"])
    var, values = varied(gate)
    texts, errors = [], []
    for value in values:
        env = dict(os.environ, **gate["env"])
        out = os.path.join(build_dir, f"BENCH_{name}.json")
        if var:
            env[var] = value
            out = os.path.join(build_dir, f"BENCH_{name}_{value}.json")
        env["ALGAS_BENCH_OUT"] = out
        print(f"[{name}] {f'{var}={value} ' if var else ''}{binary} -> {out}",
              flush=True)
        if os.path.exists(out):
            os.remove(out)
        try:
            status = subprocess.run([binary], env=env).returncode
        except OSError as e:
            return None, [f"cannot run {binary}: {e}"]
        if status != 0:
            errors.append(f"{binary} exited with status {status}")
        if not os.path.exists(out):
            return None, errors + [f"{binary} wrote no {out}"]
        with open(out) as f:
            texts.append(f.read())
    return texts, errors


def gate_name(path):
    return os.path.basename(path).removesuffix("_baseline.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def run_all(baseline_paths, build_dir):
    failed = []
    for path in baseline_paths:
        name, baseline = gate_name(path), load(path)
        texts, errors = run_gate(name, baseline["gate"], build_dir)
        for error in errors:
            print(f"  FAIL {error}")
        for ok, message in check_gate(baseline, texts) if texts else []:
            print(f"  {'ok  ' if ok else 'FAIL'} {message}")
            if not ok:
                errors.append(message)
        print(f"gate {name}: {'FAILED' if errors else 'passed'}\n")
        if errors:
            failed.append(name)
    if failed:
        print(f"check_bench: FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"check_bench: all {len(baseline_paths)} gates passed")
    return 0


# Seeded violations for --self-test: (gate, copy to edit, dotted path, new
# value, text a failure must contain). Copy 0 and 1 are the runs; "baseline"
# edits the baseline itself, gate block included.
SEEDED = [
    ("shard", 0, "variants.full.results_checksum", "0" * 16,
     "equal: variants.full.results_checksum"),
    ("recall", 0, "codecs.int8.recall_at_10", 0.98,
     "max_drop: codecs.int8.recall_at_10"),
    ("filtered", 0, "variants.graph_1pct.recall_at_10", 0.9,
     "near: variants.graph_1pct.recall_at_10"),
    ("serving", 0, "serving_distance_evals_per_s", 800000.0,
     "floor: serving_distance_evals_per_s"),
    ("shard", 1, "scaling.1.monotonic", False, "true: scaling.1.monotonic"),
    ("beam", 0, "datasets.gist.L256.beam_throughput_at_least_greedy", False,
     "true: datasets.gist.L256.beam_throughput_at_least_greedy"),
    ("mirroring", 0, "datasets.glove.hosts2.mirrored_throughput_above_naive",
     False, "true: datasets.glove.hosts2.mirrored_throughput_above_naive"),
    ("filtered", 1, "null_results_checksum", "0" * 16,
     "same_across_runs: null_results_checksum"),
    ("churn", 1, "waves.0.live", 2799, "same_across_runs: whole file"),
    ("churn", 0, "variants.churned.mean_latency_us", 74.0429935811,
     "equal: variants.churned.mean_latency_us"),
    ("walltime", 0, "n_base", 4001, "equal: n_base"),
    ("recall", "baseline", "gate.checks.0.paths.0", "datset",
     "equal: datset: matches nothing"),
]


def self_test():
    baselines = {gate_name(p): load(p)
                 for p in sorted(glob.glob(os.path.join(ROOT, "bench",
                                                        "*_baseline.json")))}

    def failures(baseline, runs):
        texts = [json.dumps(run, indent=2) for run in runs]
        return [m for ok, m in check_gate(baseline, texts) if not ok]

    def copies(baseline):
        return [copy.deepcopy(baseline) for _ in varied(baseline["gate"])[1]]

    bad = 0
    for name, baseline in baselines.items():
        got = failures(baseline, copies(baseline))
        got += [f"unread pin {path}" for path in unread_checksums(baseline)]
        print(f"{name}: baseline as its own run: "
              f"{'FAIL ' + '; '.join(got) if got else 'passes'}")
        bad += bool(got)
    # Seeded unread pin: a checksum no check reads must be reported.
    seeded = copy.deepcopy(baselines["shard"])
    seeded["variants"]["full"]["graph_checksum"] = "0" * 16
    caught = unread_checksums(seeded) == ["variants.full.graph_checksum"]
    print(f"shard: unread variants.full.graph_checksum: "
          f"{'caught' if caught else 'MISSED'}")
    bad += not caught
    for name, target, path, value, expect in SEEDED:
        baseline = copy.deepcopy(baselines[name])
        runs = copies(baseline)
        doc = baseline if target == "baseline" else runs[target]
        head, _, last = path.rpartition(".")
        (parent,) = resolve(doc, head).values()
        parent[int(last) if isinstance(parent, list) else last] = value
        got = failures(baseline, runs)
        caught = any(expect in m for m in got)
        print(f"{name}: {path} = {value!r} in {target}: "
              f"{'caught' if caught else 'MISSED'} ({expect})")
        bad += not caught
    if bad:
        print(f"check_bench self-test: {bad} case(s) FAILED", file=sys.stderr)
        return 1
    print(f"check_bench self-test: {len(baselines)} baselines pass, "
          f"{len(SEEDED) + 1} seeded violations caught")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build",
                    help="tree holding the bench binaries (default build)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the checker against the committed baselines")
    ap.add_argument("baselines", nargs="*", metavar="BASELINE")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.baselines:
        ap.error("no BASELINE given")
    return run_all(args.baselines, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
