"""bikripke benchmark: one command, three workloads, oracle-checked answers.

    python3 perfbench/run.py --workload decide-mix|decide-fresh|fragment-exact|fragment-certified
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The inputs are made from the seed.  Each round runs the whole
input once in a fresh interpreter (``round.py``), so the library's caches
and per-model contexts start cold, as they do for every command-line call;
rounds run one after another, a single client with no threads.

``--trace 0`` repeats rounds while another one fits in ``--seconds`` of timed
phase (at least three, whose deterministic counts must agree) and prints the
end-to-end metrics.  Times are scaled to a nominal machine speed by a
reference kernel timed next to them (``round.py``).  Every round does the
same work in the same order, so each query's time is taken as its median over
the rounds.  ``--trace 1`` runs one untraced and one traced round on
the same inputs and prints the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is 0 only when every answer checked
out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen

WORKLOADS = gen.DECIDE_WORKLOADS + ("fragment-exact", "fragment-certified")
MIN_ROUNDS = 3
SETUP_PROBES = 6          # extra set-up-only interpreters per run
RUN_BUDGET_S = 170.0

ROUTES = ("exact_sweep", "closed_formula", "monotone_rule", "single_world_cone",
          "s5_validity_on_cluster_cone", "s4_2_validity_on_directed_frame",
          "s4_validity", "simulated_countermodel", "probe_substitution", "unresolved")
COUNTERMODEL_WORLDS = range(1, 9)
FRAME_CONSTRUCTORS = ("make_frame", "single_point", "cluster", "chain", "bs_frame",
                      "bs_model", "powerset_frame", "combo_frame", "load", "loads")


class RoundFailed(Exception):
    pass


def run_round(inputs_path: str, mode: str, deadline: float, check: bool = False,
              spans: str | None = None, hash_seed: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--inputs", inputs_path,
           "--mode", mode, "--check", "1" if check else "0"]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("run budget exhausted")
    try:
        # One hash seed for every round of a run: set and dict orders, and so
        # the work done, are the same in each round.
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{mode} round exceeded the run budget") from None
    if proc.returncode != 0:
        raise RoundFailed(f"{mode} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def median_times(rounds: list, key: str) -> list:
    """Per segment (a query, or the time between queries), its median time
    over the rounds.  Rounds repeat the same work, so the segments line up."""
    if len({len(r[key]) for r in rounds}) != 1:
        raise RoundFailed(f"rounds on the same inputs timed different numbers of {key}")
    return [statistics.median(ts) for ts in zip(*(r[key] for r in rounds))]


def end_to_end(rounds: list, setups: list, inputs: dict) -> tuple[dict, dict]:
    """Throughput and latency come from each segment's median over the
    rounds, at the nominal machine speed: a short stall hits one round, not
    the median.  (The least time over the rounds would be no steadier: it
    favours the rounds whose scaling overshot.)"""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["errors"] for r in rounds)
    unresolved = sum(r["unresolved"] for r in rounds)
    latency = median_times(rounds, "latency_ms")
    timed_s = (sum(latency) + sum(median_times(rounds, "rest_ms"))) / 1e3
    ordered = sorted(latency)
    median = statistics.median
    metrics = {
        "throughput_qps": (rounds[0]["attempted"] / timed_s, "1/s"),
        "latency_p50_ms": (percentile(ordered, 50), "ms"),
        "latency_p99_ms": (percentile(ordered, 99), "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
        "correct_ratio": (1 - failed / attempted, "ratio"),
        "resolved_ratio": (1 - unresolved / attempted, "ratio"),
    }
    info = {
        "rounds": len(rounds),
        "latency_samples": len(latency),
        "median_timed_s": round(timed_s, 4),
        "unscaled_median_round_qps": round(median(r["attempted"] / r["timed_s"] for r in rounds), 2),
        "slowdown_by_round": [round(r["speed"]["slowdown_median"], 3) for r in rounds],
        "error_ratio": f"{failed / attempted} ({failed}/{attempted})",
        "unresolved_ratio": f"{unresolved / attempted} ({unresolved}/{attempted})",
        "setup_samples": len(setups),
        "timed_s_per_round": [round(r["timed_s"], 4) for r in rounds],
        "check_s": round(rounds[0]["check_s"], 3),
    }
    if inputs["workload"] in gen.DECIDE_WORKLOADS:
        # The fresh and the repeat strata apart, so that a gain that comes
        # only from repeated queries shows as such.
        for stratum, pick in (("fresh", lambda s: s not in gen.REPEATS),
                              ("repeat", lambda s: s in gen.REPEATS)):
            lat = sorted(t for t, q in zip(latency, inputs["queries"]) if pick(q["source"]))
            if lat:
                info[f"{stratum}_latency_ms"] = (
                    f"n={len(lat)} mean={sum(lat) / len(lat):.5f} "
                    f"p50={percentile(lat, 50):.5f} p99={percentile(lat, 99):.5f}")
    return metrics, info


def per_layer(plain: dict, traced: dict) -> dict:
    t = traced["trace"]
    self_s, calls = t["self_s"], t["calls"]
    s = lambda *names: sum(self_s.get(n, 0.0) for n in names)
    c = lambda name: calls.get(name, 0)
    routes = dict(t["routes"])
    m = {
        "formula.parse.calls": (c("formula.parse"), "count"),
        "formula.parse.self_s": (s("formula.parse"), "s"),
        "formula.enumerate.self_s": (s("formula.enumerate_formulas"), "s"),
        "formula.substitute.calls": (c("formula.substitute"), "count"),
        "formula.substitute.self_s": (s("formula.substitute"), "s"),
        "frame.construct.self_s": (s(*(f"frame.{n}" for n in FRAME_CONSTRUCTORS)), "s"),
        "frame.props.self_s": (s("frame.props", "frame.properties"), "s"),
        "frame.dumps.self_s": (s("frame.dumps"), "s"),
        "semantics.eval_mask.calls": (c("semantics.eval_mask"), "count"),
        "semantics.eval_mask.self_s": (s("semantics.eval_mask"), "s"),
        "semantics.definable_algebra.self_s": (s("semantics.definable_algebra"), "s"),
        "semantics.ml_status.calls": (c("semantics.ml_status"), "count"),
        "semantics.ml_status.self_s": (s("semantics.ml_status"), "s"),
    }
    for r in ROUTES:
        m[f"semantics.route.{r}"] = (routes.pop(r, 0), "count")
    m["semantics.route.other"] = (sum(routes.values()), "count")
    lookups = t["decide_cache_lookups"]
    m.update({
        "theories.decide.cm.calls": (c("theories.decide.cm"), "count"),
        "theories.decide.cm.self_s": (s("theories.decide.cm"), "s"),
        "theories.decide.verdict.calls": (c("theories.decide.verdict"), "count"),
        "theories.decide.verdict.self_s": (s("theories.decide.verdict"), "s"),
        "theories.classify.self_s": (s("theories.classify"), "s"),
        "theories.decide.cache_hit_ratio": (t["decide_cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "theories.decide.cache_lookups": (lookups, "count"),
    })
    for n in COUNTERMODEL_WORLDS:
        m[f"theories.countermodel_worlds.{n}"] = (t["cm_worlds"].get(str(n), 0), "count")
    sims = c("controls.simulate_countermodel")
    m.update({
        "controls.find_family.self_s": (s("controls.find_family"), "s"),
        "controls.check_independent.self_s": (s("controls.check_independent"), "s"),
        "controls.simulate_countermodel.calls": (sims, "count"),
        "controls.simulate_countermodel.self_s": (s("controls.simulate_countermodel"), "s"),
        "controls.simulate_countermodel.ok_ratio": (t["simulate_ok"] / sims if sims else 0.0, "ratio"),
        "trace.overhead_ratio": (traced["timed_s"] / plain["timed_s"], "ratio"),
        "trace.span_coverage": (t["timed_self_s"] / traced["timed_s"], "ratio"),
    })
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bikripke", "__init__.py")):
        sys.stderr.write("run from the root of a bikripke checkout: src/bikripke is missing\n")
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    inputs = gen.make_inputs(args.workload, args.seed)
    inputs_path = os.path.join(out_dir, f"inputs-{tag}.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("shape=" + json.dumps(gen.shape(inputs)))
    hash_seed = args.seed % 4294967296
    try:
        if args.trace == 0:
            rounds = [run_round(inputs_path, "timed", deadline, check=True, hash_seed=hash_seed)]
            while (len(rounds) < MIN_ROUNDS or sum(r["timed_s"] for r in rounds)
                   + max(r["timed_s"] for r in rounds) <= args.seconds):
                rounds.append(run_round(inputs_path, "timed", deadline, hash_seed=hash_seed))
            setups = [r["setup_s"] for r in rounds]
            setups += [run_round(inputs_path, "setup", deadline, hash_seed=hash_seed)["setup_s"]
                       for _ in range(SETUP_PROBES)]
        else:
            rounds = [run_round(inputs_path, "timed", deadline, check=True, hash_seed=hash_seed),
                      run_round(inputs_path, "traced", deadline, hash_seed=hash_seed,
                                spans=os.path.join(out_dir, f"spans-{tag}.tsv.gz"))]
    except RoundFailed as exc:
        print(f"FAIL {exc}")
        return 1

    # Only the first round is checked against the oracles.  The others must
    # reproduce its deterministic counts exactly, answers digest included, and
    # then share its error count.
    problems = list(rounds[0]["failures"])
    for r in rounds[1:]:
        if r["counts"] != rounds[0]["counts"]:
            problems.append("deterministic counts differ between two rounds on the same seed")
        problems += r["failures"]
        r["errors"] = max(r["errors"], rounds[0]["errors"])
    if args.trace == 0:
        try:
            metrics, info = end_to_end(rounds, setups, inputs)
        except RoundFailed as exc:
            print(f"FAIL {exc}")
            return 1
    else:
        plain, traced = rounds
        metrics = per_layer(plain, traced)
        info = {"untraced_timed_s": plain["timed_s"], "traced_timed_s": traced["timed_s"],
                "timed_self_s": traced["trace"]["timed_self_s"],
                "self_over_untraced_wall": traced["trace"]["timed_self_s"] / plain["timed_s"],
                "routes": traced["trace"]["routes"]}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["errors"] for r in rounds)
    correct = not problems and failed == 0

    print("counts=" + json.dumps(rounds[0]["counts"]))
    print("cache_info=" + json.dumps(rounds[0]["cache_info"]))
    for k, v in info.items():
        print(f"{k}={v}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
