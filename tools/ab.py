#!/usr/bin/env python3
"""Paired A/B runs of the served-session benchmark between two revisions.

    tools/ab.py BASE HEAD --workload W --seed S --pairs N --seconds T [--work DIR]
    tools/ab.py --self-test

Run it from the repository root. BASE and HEAD are git revisions. Each is
exported with `git archive` into DIR/<commit>/src and built there by its own
perfbench/run.py into a fresh DIR/<commit>/target, so neither side reuses
the other's build output, or any target directory built from other sources.
A revision's export and build are kept and reused by later invocations
(the directory is keyed by the full commit id). DIR defaults to .ab_build.

The runs go in ABBA order: pair i runs BASE then HEAD when i is even and
HEAD then BASE when it is odd, so a drift of the host during the session
weighs on both sides alike. For every end-to-end metric of BENCHMARK.json
the tool prints the median over the pairs of HEAD/BASE, with the
interquartile range of those ratios, the median and quartiles of each
side's runs, how many pairs HEAD won, and a verdict: `unresolved` when
the ratios spread wider than the metric's bound, `worse` when the median
ratio is worse by more than the bound, `gain` when HEAD won at least 9
in 10 pairs and the medians differ by more than BASE's own IQR, `flat`
otherwise.

Exit status: 0 when every run is `correct` with `failed` 0; 1 when any run
is not, a run whose build failed included (the verdict on a metric is left
to the reader: this is not a perf gate); 2 on usage errors or a failed
export.

--self-test checks the parsing and the statistics on canned result lines
and exits 0 when they hold.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def parse_result(stdout):
    """The benchmark's JSON result: the last non-empty line of stdout."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_ok(result):
    return result.get("correct") is True and result.get("failed") == 0


def metric(result, name):
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def summarize(pairs, specs):
    """One row per metric of `specs` (BENCHMARK.json end-to-end entries:
    name, better, bound) that both sides of at least one pair report with
    a non-zero base. A row holds the medians of each side, the median of
    the per-pair HEAD/BASE ratios with its quartiles, the pairs HEAD won,
    and a verdict:

    unresolved  the ratios' IQR is wider than the metric's bound;
    worse       the median ratio is worse than 1 by more than the bound;
    gain        HEAD won at least 9 in 10 pairs, and the medians differ by
                more than the IQR of BASE's own runs;
    flat        none of these."""
    rows = []
    for spec in specs:
        name, higher = spec["name"], spec["better"] == "higher"
        base, head, ratios, wins = [], [], [], 0
        for b, h in pairs:
            vb, vh = metric(b, name), metric(h, name)
            if vb is None or vh is None or vb == 0:
                continue
            base.append(vb)
            head.append(vh)
            ratios.append(vh / vb)
            wins += (vh > vb) if higher else (vh < vb)
        if not ratios:
            continue
        mb, mh = quantile(base, 0.5), quantile(head, 0.5)
        r, q1, q3 = (quantile(ratios, q) for q in (0.5, 0.25, 0.75))
        worse_by = (1 - r) if higher else (r - 1)
        if q3 - q1 > spec["bound"]:
            verdict = "unresolved"
        elif worse_by > spec["bound"]:
            verdict = "worse"
        elif 10 * wins >= 9 * len(ratios) and abs(mh - mb) > quantile(base, 0.75) - quantile(base, 0.25):
            verdict = "gain"
        else:
            verdict = "flat"
        rows.append(dict(
            name=name, base=mb, head=mh, ratio=r, q1=q1, q3=q3, wins=wins, n=len(ratios), verdict=verdict,
            base_iqr=(quantile(base, 0.25), quantile(base, 0.75)), head_iqr=(quantile(head, 0.25), quantile(head, 0.75))))
    return rows


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev, work):
    """Exports `rev` into work/<commit>/src once; returns (commit, side dir)."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    side = os.path.join(work, commit)
    src = os.path.join(side, "src")
    if not os.path.isdir(src):
        os.makedirs(side, exist_ok=True)
        tmp = src + ".partial"
        subprocess.run(["rm", "-rf", tmp], check=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % commit)
        os.rename(tmp, src)
    return commit, side


def run_side(side, args):
    """One benchmark run of one side; returns its parsed result."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, "target"))
    cmd = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(cmd, cwd=os.path.join(side, "src"), env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    try:
        return parse_result(done.stdout)
    except ValueError as e:
        return {"correct": False, "failed": -1, "error": str(e)}


def end_to_end_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def report(rows):
    print("%-26s %10s %10s %9s %16s %6s  %s" % ("metric", "base", "head", "head/base", "IQR", "wins", "verdict"))
    for w in rows:
        print("%-26s %10.4g %10.4g %9.3f   [%.3f, %.3f] %3d/%-3d %s" % (
            w["name"], w["base"], w["head"], w["ratio"], w["q1"], w["q3"], w["wins"], w["n"], w["verdict"]))
    print("quartiles of each side's runs:")
    for w in rows:
        print("%-26s base [%.4g, %.4g]  head [%.4g, %.4g]" % ((w["name"],) + w["base_iqr"] + w["head_iqr"]))


def self_test():
    line = lambda cpu, sps, ok=True, failed=0: json.dumps(
        {
            "correct": ok,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                "server_cpu_ms_per_session": {"value": cpu, "unit": "ms"},
                "sessions_per_s": {"value": sps, "unit": "1/s"},
            },
        }
    )
    out = "build noise\n\n" + line(200.0, 5.0) + "\n"
    assert parse_result(out)["metrics"]["sessions_per_s"]["value"] == 5.0
    assert run_ok(parse_result(out))
    assert not run_ok(parse_result(line(1.0, 1.0, ok=False)))
    assert not run_ok(parse_result(line(1.0, 1.0, failed=2)))
    try:
        parse_result("\n \n")
        raise AssertionError("an empty run must not parse")
    except ValueError:
        pass
    pairs = [
        (parse_result(line(400.0, 2.5)), parse_result(line(200.0, 5.0))),
        (parse_result(line(300.0, 3.0)), parse_result(line(240.0, 3.0))),
        (parse_result(line(350.0, 2.0)), parse_result(line(175.0, 4.0))),
        (parse_result(line(100.0, 4.0)), parse_result(line(90.0, 4.0))),
    ]
    specs = [
        {"name": "server_cpu_ms_per_session", "better": "lower", "bound": 0.25},
        {"name": "sessions_per_s", "better": "higher", "bound": 0.25},
        {"name": "absent", "better": "lower", "bound": 0.25},
    ]
    rows = {w["name"]: w for w in summarize(pairs, specs)}
    assert "absent" not in rows
    w = rows["server_cpu_ms_per_session"]
    # Ratios 0.5, 0.8, 0.5, 0.9: median 0.65, quartiles 0.5 and 0.825.
    assert w["n"] == 4 and abs(w["ratio"] - 0.65) < 1e-12, w
    assert abs(w["q1"] - 0.5) < 1e-12 and abs(w["q3"] - 0.825) < 1e-12, w
    assert abs(w["base"] - 325.0) < 1e-12 and abs(w["head"] - 187.5) < 1e-12, w
    assert w["base_iqr"] == (250.0, 362.5) and w["head_iqr"] == (153.75, 210.0), w
    # Head is lower in all 4 pairs, but the ratios spread 0.325 > 0.25.
    assert (w["wins"], w["verdict"]) == (4, "unresolved"), w
    # Ratios 2, 1, 2, 1: head higher in 2 of 4 pairs, spread 1.
    w = rows["sessions_per_s"]
    assert abs(w["ratio"] - 1.5) < 1e-12 and w["wins"] == 2, w
    assert w["verdict"] == "unresolved", w
    tight = [(parse_result(line(400.0 + i, 2.0)), parse_result(line(200.0 + i, 2.0 - i / 100))) for i in range(10)]
    rows = {w["name"]: w for w in summarize(tight, specs)}
    assert (rows["server_cpu_ms_per_session"]["wins"], rows["server_cpu_ms_per_session"]["verdict"]) == (10, "gain")
    # Equal in pair 0, lower after: no pair won, 0.955 is within the bound.
    assert (rows["sessions_per_s"]["wins"], rows["sessions_per_s"]["verdict"]) == (0, "flat")
    slow = [(parse_result(line(100.0, 2.0)), parse_result(line(130.0 + i, 2.0))) for i in range(4)]
    assert summarize(slow, specs)[0]["verdict"] == "worse"
    assert quantile([3.0], 0.25) == 3.0
    print("ab.py self-test: ok")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--work", default=os.path.join(ROOT, ".ab_build"))
    args = p.parse_args(argv[1:])
    if args.pairs < 1 or args.seconds < 1:
        p.error("--pairs and --seconds must be positive")
    try:
        sides = [export(args.base, os.path.abspath(args.work)), export(args.head, os.path.abspath(args.work))]
    except (subprocess.CalledProcessError, RuntimeError) as e:
        sys.stderr.write("error: export failed: %s\n" % e)
        return 2
    print("base %s  head %s  workload %s seed %d, %d pairs of %d s" % (
        sides[0][0][:10], sides[1][0][:10], args.workload, args.seed, args.pairs, args.seconds))
    pairs, bad = [], 0
    for i in range(args.pairs):
        order = [0, 1] if i % 2 == 0 else [1, 0]
        got = {}
        for s in order:
            got[s] = run_side(sides[s][1], args)
            label = "base" if s == 0 else "head"
            cpu = metric(got[s], "server_cpu_ms_per_session")
            print("pair %d %s: correct=%s failed=%s server_cpu_ms_per_session=%s" % (
                i, label, got[s].get("correct"), got[s].get("failed"), cpu), flush=True)
            if not run_ok(got[s]):
                bad += 1
        pairs.append((got[0], got[1]))
    report(summarize(pairs, end_to_end_specs()))
    if bad:
        sys.stderr.write("error: %d run(s) not correct or with failed operations\n" % bad)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
