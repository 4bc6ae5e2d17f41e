"""One round of a workload in a fresh interpreter.

    python3 perfbench/round.py --inputs FILE --mode timed|traced|setup
                               [--check 0|1] [--spans FILE]

Set-up is importing bikripke, timed from the first line of this file before
anything else is imported, plus building the workload's models and reading
their Frame.props; reading the inputs in between is not counted.  The timed
phase then runs the whole
input once, a single client in a closed loop.  Answers are checked against
the oracles afterwards, outside the timed phase.  The result is one JSON
object on the last line of standard output.
"""

import time

_T0 = time.perf_counter()

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import bikripke as bk

_IMPORT_S = time.perf_counter() - _T0

import argparse
import bisect
import hashlib
import json
import random
import resource
from collections import Counter

import numpy as np

import gen
import oracle

THEORY_RANK = {"s4": 0, "s4.2": 1, "s5": 2, "pl": 3}   # weakest first
WITNESS_SAMPLE = {"fragment-exact": 10, "fragment-certified": 8}  # per status
ORDERING_SAMPLE = 200

# The machine's speed.  On a shared virtual machine the same code runs up to
# 1.7 times slower for seconds to minutes at a time while other tenants load
# the host, and that is the bulk of the run-to-run spread.  A fixed reference
# kernel slows down with it: every CAL_PERIOD_S of the timed phase the kernel
# is timed, and each query's time is scaled by REF_NOMINAL_S over the mean
# kernel time of the two checkpoints around it.  The reported times are then
# those of a machine on which the kernel takes REF_NOMINAL_S, between its
# times on the 2-vCPU machine the benchmark was written on when the host is
# idle (about 1.9 ms) and loaded (about 3.3 ms).
REF_NOMINAL_S = 0.0025
CAL_PERIOD_S = 0.25
clock = time.perf_counter


def reference_s() -> float:
    """Least of three runs of a fixed kernel of tuple-keyed dict updates and
    small-array bit operations, the two kinds of work the library does.  It
    calls no library code, so no change to the library changes its time."""
    best = float("inf")
    for _ in range(3):
        t = clock()
        d: dict = {}
        for i in range(6000):
            k = (i % 97, i % 89, i & 7)
            d[k] = d.get(k, 0) + i
        a = np.arange(256, dtype=np.uint64)
        for _ in range(100):
            a = (a << np.uint64(1)) ^ (a >> np.uint64(3)) | a[::-1]
        best = min(best, clock() - t)
    return best


class Speed:
    """Reference-kernel checkpoints of one timed phase, each tagged with the
    number of queries done before it.  The time the checkpoints take is
    counted in ``spent`` and kept out of the timed phase."""

    def __init__(self):
        self.done: list[int] = []
        self.ref: list[float] = []
        self.spent = 0.0
        self.mark(0)
        self.spent = 0.0            # the first checkpoint precedes the timed phase

    def mark(self, done: int) -> None:
        t = clock()
        self.ref.append(reference_s())
        self.done.append(done)
        self.last = clock()
        self.spent += self.last - t

    def scale(self, index: int) -> float:
        """REF_NOMINAL_S over the mean kernel time around query ``index``."""
        k = bisect.bisect_right(self.done, index) - 1
        j = min(k + 1, len(self.ref) - 1)
        return 2 * REF_NOMINAL_S / (self.ref[k] + self.ref[j])

    def summary(self) -> dict:
        factors = sorted(r / REF_NOMINAL_S for r in self.ref)
        return {"checkpoints": len(factors), "slowdown_min": factors[0],
                "slowdown_median": factors[len(factors) // 2], "slowdown_max": factors[-1]}


def theories(bk) -> dict:
    return {"pl": bk.PL, "s4": bk.S4, "s4.2": bk.S4_2, "s5": bk.S5}


def build_model(bk, name: str, relabel: int):
    """The thm4..thm7 models of the experiments, worlds relabelled."""
    if name == "thm4":
        m = bk.powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], range(8))
    elif name == "thm5":
        m = bk.powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], [0, 1, 3, 4, 6, 7])
    elif name == "thm6":
        m = bk.combo_frame("cluster_below_bs", 2, 2, 1)
    else:
        m = bk.combo_frame("cluster_above_bs", 2, 2, 1)
    n = m.frame.n
    perm = list(range(n))
    random.Random(relabel).shuffle(perm)
    frame = bk.make_frame(n, [(perm[i], perm[j]) for i, j in m.frame.edges()],
                          name=m.frame.name)
    val = {l: sum(1 << perm[w] for w in m.letter_set(l)) for l in m.letters()}
    model = bk.PointedModel(frame, val, perm[m.point])
    bk.properties(model.frame)
    return model


def cache_counters(lib_modules) -> dict:
    """lru_cache objects of the library, by qualified name, read before any
    wrapping so that their cache_info() stays reachable."""
    out = {}
    for mod in lib_modules:
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{mod.__name__.split('.')[-1]}.{attr}"] = obj
    return out


# ---------------------------------------------------------------------------
# decide-mix, decide-fresh
# ---------------------------------------------------------------------------

def run_decide(bk, inputs: dict, speed: Speed | None) -> dict:
    frame_mod = sys.modules["bikripke.frame"]
    by_name = theories(bk)
    queries = [(q["text"], by_name[q["theory"]]) for q in inputs["queries"]]
    status: list = [None] * len(queries)
    cm_text: list = [None] * len(queries)
    latency = [0.0] * len(queries)
    t_start = clock()
    for i, (text, theory) in enumerate(queries):
        if speed is not None and clock() - speed.last >= CAL_PERIOD_S:
            speed.mark(i)
        t = clock()
        try:
            verdict = bk.decide(theory, bk.parse(text))
            if verdict.is_invalid:
                cm_text[i] = frame_mod.dumps(verdict.countermodel)
            status[i] = verdict.status
        except Exception as exc:      # counted as an error, reported below
            status[i] = f"error: {type(exc).__name__}: {exc}"
        latency[i] = clock() - t
    timed = clock() - t_start
    rest = []
    if speed is not None:
        timed -= speed.spent
        speed.mark(len(queries))
        rest = [(timed - sum(latency)) * speed.scale(len(queries) - 1)]
        latency = [t * speed.scale(i) for i, t in enumerate(latency)]
    return {"timed_s": timed, "latency": latency, "rest": rest,
            "status": status, "cm": cm_text}


def check_decide(bk, inputs: dict, res: dict, seed: int) -> tuple[list, int]:
    """Oracle checks of every verdict and countermodel.  Returns the failure
    messages and the number of queries answered wrongly or by an exception."""
    by_name = theories(bk)
    failures = []
    verdict_of: dict = {}           # (text, theory) -> problem or None
    by_formula: dict = {}           # up-oriented formula -> {theory: status}
    s5_memo: dict = {}
    for q, st, cm in zip(inputs["queries"], res["status"], res["cm"]):
        key = (q["text"], q["theory"])
        if key in verdict_of:
            continue
        f = oracle.from_json(q["ast"])
        up = oracle.flip(f, "u")
        theory = q["theory"]
        by_formula.setdefault(up, {})[theory] = st
        problem = None
        if st.startswith("error"):
            problem = st
        elif st == "invalid":
            m = oracle.read_model(cm)
            if not oracle.in_class(theory, m):
                problem = "countermodel outside the frame class"
            elif oracle.holds(m, up, m.point):
                problem = "countermodel does not refute"
        elif st == "valid":
            # Instances of a theory's axioms are valid there and above.  Other
            # valid verdicts must pass the PL truth table or the S5 colour
            # oracle, both complete; S4 and S4.2 ones must also survive every
            # valuation on a two-world chain and, for S4 over at most two
            # letters, on a three-world fork.
            if q["valid_at"] is None or THEORY_RANK[theory] < THEORY_RANK[q["valid_at"]]:
                if theory == "pl":
                    ok = oracle.pl_valid(f)
                else:
                    if up not in s5_memo:
                        s5_memo[up] = oracle.s5_valid(up)
                    ok = s5_memo[up]
                if ok and theory in ("s4", "s4.2"):
                    ok = not oracle.refutable_on(oracle.CHAIN2, up)
                    if ok and theory == "s4" and len(oracle.letters(up)) <= 2:
                        ok = not oracle.refutable_on(oracle.FORK3, up)
                if not ok:
                    problem = "valid verdict refuted by an oracle"
        elif st != "unknown":
            problem = f"unexpected status {st!r}"
        verdict_of[key] = problem
        if problem:
            failures.append(f"{theory} {q['text']}: {problem}")
    # Repeats must get the answer of their first occurrence.
    first: dict = {}
    for i, q in enumerate(inputs["queries"]):
        key = (q["text"], q["theory"])
        j = first.setdefault(key, i)
        if (res["status"][i], res["cm"][i]) != (res["status"][j], res["cm"][j]):
            verdict_of[key] = "repeat answered differently"
            failures.append(f"{q['theory']} {q['text']}: repeat answered differently")
    # S4 <= S4.2 <= S5 <= PL: validity is only ever gained along the chain,
    # within the run's own verdicts and on a seeded sample decided for all four.
    chain = sorted(THEORY_RANK, key=THEORY_RANK.get)
    sample = set(random.Random(seed).sample(sorted(by_formula, key=oracle.to_text),
                                            min(ORDERING_SAMPLE, len(by_formula))))
    for up, verdicts in by_formula.items():
        if up in sample:
            g = bk.parse(oracle.to_text(up))
            all_four = {t: bk.decide(by_name[t], g, want_countermodel=False).status
                        for t in chain}
            for t, v in verdicts.items():
                if v in ("valid", "invalid") and all_four[t] != v:
                    failures.append(f"{t} {oracle.to_text(up)}: verdict changes with the "
                                    "countermodel request")
            verdicts = {**all_four, **verdicts}
        ranked = [THEORY_RANK[t] for t, v in verdicts.items() if v == "valid"]
        broken = [t for t, v in verdicts.items()
                  if v == "invalid" and ranked and THEORY_RANK[t] > min(ranked)]
        if broken:
            failures.append(f"{oracle.to_text(up)}: valid below {broken} yet invalid there")
    wrong = sum(1 for q in inputs["queries"] if verdict_of[(q["text"], q["theory"])])
    return failures, wrong


def decide_counts(inputs: dict, res: dict) -> dict:
    verdicts = Counter(f"{q['theory']}/{st if not st.startswith('error') else 'error'}"
                       for q, st in zip(inputs["queries"], res["status"]))
    worlds = Counter(oracle.read_model(cm).n for cm in res["cm"] if cm is not None)
    digest = hashlib.sha256()
    for st, cm in zip(res["status"], res["cm"]):
        digest.update(f"{st}\n{cm}\n".encode())
    return {"verdicts": dict(sorted(verdicts.items())),
            "countermodel_worlds": {str(k): v for k, v in sorted(worlds.items())},
            "answers_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# fragment jobs
# ---------------------------------------------------------------------------

def run_fragment(bk, inputs: dict, models: dict, speed: Speed | None) -> dict:
    semantics = sys.modules["bikripke.semantics"]
    ends: list[float] = []          # completion of each query
    starts: list[float] = []        # start of the next one: checkpoints excluded
    base = 0                        # queries done in earlier jobs
    original = semantics.ml_status
    if speed is not None:
        # Completion times of ml_fragment's per-formula ml_status calls: one
        # clock read per query, and a checkpoint every CAL_PERIOD_S.
        def ml_status(m, f):
            out = original(m, f)
            t = clock()
            ends.append(t)
            if t - speed.last >= CAL_PERIOD_S:
                speed.mark(base + len(ends))
                t = speed.last
            starts.append(t)
            return out
        semantics.ml_status = ml_status
    jobs = []
    latency: list[float] = []
    rest: list[float] = []          # per job: last completion to end of classify
    timed = 0.0
    try:
        for job in inputs["jobs"]:
            model = models[job["model"]]
            direction = bk.UP if job["dir"] == "u" else bk.DOWN
            del ends[:], starts[:]
            spent = speed.spent if speed is not None else 0.0
            t0 = clock()
            frag = bk.ml_fragment(model, job["k"], job["size"], {direction})
            cls = bk.classify(frag)
            t2 = clock()
            count = len(frag.formulas)
            if speed is not None:
                timed += t2 - t0 - (speed.spent - spent)
                speed.mark(base + count)
                # A query is one formula through ml_status; if ml_fragment no
                # longer makes one call per formula, the latency definition
                # no longer holds and the benchmark has to be changed openly.
                if len(ends) != count:
                    raise RuntimeError(
                        f'{job["model"]}/{job["dir"]}: {len(ends)} ml_status calls for '
                        f"{count} formulas; latency per query is undefined")
                latency += [(e - s) * speed.scale(base + j)
                            for j, (s, e) in enumerate(zip([t0] + starts, ends))]
                rest.append((t2 - starts[-1]) * speed.scale(base + count - 1))
            else:
                timed += t2 - t0
            base += count
            jobs.append((job, model, direction, frag, cls))
    finally:
        semantics.ml_status = original
    return {"timed_s": timed, "latency": latency, "rest": rest, "jobs": jobs}


def check_fragment(bk, inputs: dict, res: dict, seed: int) -> list:
    semantics = sys.modules["bikripke.semantics"]
    frame_mod = sys.modules["bikripke.frame"]
    failures = []
    oracle_models: dict = {}
    for index, (job, model, direction, frag, cls) in enumerate(res["jobs"]):
        name = f'{job["model"]}/{job["dir"]}'
        if id(model) not in oracle_models:
            om = oracle.read_model(frame_mod.dumps(model))
            oracle_models[id(model)] = (om, oracle.bisimulation_classes(om))
        om, classes = oracle_models[id(model)]
        if inputs["workload"] == "fragment-exact":
            want = gen.EXACT_FRAGMENT_SIZES[(job["model"], job["dir"])]
            if frag.fragment_size != want:
                failures.append(f"{name}: fragment size {frag.fragment_size}, expected {want}")
            if frag.unknown:
                failures.append(f"{name}: {len(frag.unknown)} unknown formulas on an exact job")
        side = theories(bk)[job["side"]]
        if side is bk.S4_2:
            if bk.S4_2 not in cls.matches or bk.S5 not in cls.separators:
                failures.append(f"{name}: S4.2 side classified {cls.matches_label()}")
        elif bk.S5 not in cls.matches:
            failures.append(f"{name}: S5 side classified {cls.matches_label()}")
        for t, sep in cls.separators.items():
            ast = oracle.from_library(sep)
            st = frag.status.get(sep)
            if t in (bk.S5, bk.PL):
                valid = (oracle.s5_valid(oracle.flip(ast, "u")) if t is bk.S5
                         else oracle.pl_valid(ast))
                if st is None or st == valid:
                    failures.append(f"{name}: {t.value} separator does not separate: {sep}")
        rng = random.Random(f"{seed}/{index}")
        per_status = WITNESS_SAMPLE[inputs["workload"]]
        members = [f for f in frag.formulas if frag.status[f] is True]
        others = [f for f in frag.formulas if frag.status[f] is False]
        picks = (rng.sample(members, min(per_status, len(members)))
                 + rng.sample(others, min(per_status, len(others))))
        for f in picks:
            out = semantics.ml_status(model, f)
            problem = check_outcome(om, classes, oracle.from_library(f), job["dir"], out)
            if out.status != frag.status[f]:
                problem = "report and ml_status disagree"
            if problem:
                failures.append(f"{name}: {problem}: {f} ({out.how})")
    return failures


def check_outcome(om, classes, ast, d: str, out) -> str | None:
    """Verify one ml membership outcome by its route; None when it holds."""
    how, status = out.how, out.status
    ls = oracle.letters(ast)
    if status is None:
        return None
    if how == "closed formula":
        return None if oracle.holds(om, ast, om.point) == status else "wrong closed value"
    if how == "exact sweep":
        if status is False:
            val = dict(om.val)
            for l, ws in out.witness.items():
                s = frozenset(ws)
                if not oracle.definable(classes, s):
                    return "witness set is not definable"
                val[l] = s
            return "witness does not refute" if oracle.holds(om, ast, om.point, val) else None
        unions = [frozenset().union(*(c for i, c in enumerate(classes) if (bits >> i) & 1))
                  for bits in range(1 << len(classes))]
        for combo in _assignments(unions, len(ls)):
            val = dict(om.val)
            val.update(zip(ls, combo))
            if not oracle.holds(om, ast, om.point, val):
                return "a definable assignment refutes a member"
        return None
    if how == "single-world cone":
        # Membership is PL validity: the empty and the full set realise
        # both truth values of a letter at the point.  A formula without
        # modalities only reads the point itself.
        modal = any(g[0] in ("box", "dia") for g in oracle.subterms(ast))
        if modal and oracle.cone(om.succ(d), om.point) != {om.point}:
            return "cone is not a single world"
        if status:
            return None if oracle.pl_valid(ast) else "PL-invalid member"
        everything = frozenset(range(om.n))
        for combo in _assignments([frozenset(), everything], len(ls)):
            val = dict(om.val)
            val.update(zip(ls, combo))
            if not oracle.holds(om, ast, om.point, val):
                return None
        return "no empty/full assignment refutes a non-member"
    if status is False:
        if not isinstance(out.witness, dict):
            return "non-member without a witness"
        sigma = {l: oracle.from_library(g) for l, g in out.witness.items()}
        inst = oracle.substitute(ast, sigma)
        return "substitution does not refute" if oracle.holds(om, inst, om.point) else None
    succ = om.succ(d)
    if "validity" in how:
        if not (oracle.reflexive(succ) and oracle.transitive(succ)):
            return "frame is not reflexive and transitive"
        if "S4.2" in how and not oracle.directed(succ):
            return "frame is not directed"
        if "cluster" in how:
            c = oracle.cone(succ, om.point)
            if any(not c <= succ[w] for w in c):
                return "cone is not a cluster"
    # Sound members hold under every substitution; try the model's letters.
    for letter in sorted(om.val):
        val = dict(om.val)
        val.update({l: om.val[letter] for l in ls})
        if not oracle.holds(om, ast, om.point, val):
            return f"member refuted by substituting {letter}"
    return None


def _assignments(sets: list, k: int):
    if k == 0:
        yield ()
        return
    for s in sets:
        for rest in _assignments(sets, k - 1):
            yield (s,) + rest


def fragment_counts(res: dict, semantics) -> dict:
    out = {}
    for job, model, direction, frag, cls in res["jobs"]:
        routes = Counter(semantics.ml_status(model, f).how for f in frag.formulas)
        statuses = "".join({True: "1", False: "0", None: "?"}[frag.status[f]]
                           for f in frag.formulas)
        out[f'{job["model"]}/{job["dir"]}'] = {
            "formulas": len(frag.formulas), "members": frag.fragment_size,
            "unknown": len(frag.unknown), "matches": cls.matches_label(),
            "routes": dict(sorted(routes.items())),
            "status_sha256": hashlib.sha256(statuses.encode()).hexdigest()}
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload = inputs["workload"]

    lib = [sys.modules[f"bikripke.{m}"] for m in ("formula", "frame", "semantics",
                                                  "theories", "controls")]
    caches = cache_counters(lib)
    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.on = True
    t_build = time.perf_counter()
    models = {}
    decide = workload in gen.DECIDE_WORKLOADS
    if not decide:
        for name, relabel in sorted(inputs["relabel"].items()):
            models[name] = build_model(bk, name, relabel)
    setup_s = _IMPORT_S + time.perf_counter() - t_build
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    span_start = len(tracer.start) if tracer else 0
    speed = Speed() if args.mode == "timed" else None
    if decide:
        res = run_decide(bk, inputs, speed)
    else:
        res = run_fragment(bk, inputs, models, speed)
    if tracer:
        tracer.on = False
        timed_spans = (span_start, len(tracer.start))
    if decide:
        attempted = len(inputs["queries"])
        errors = sum(st.startswith("error") for st in res["status"])
        unresolved = sum(st == "unknown" for st in res["status"])
    else:
        attempted = sum(len(j[3].formulas) for j in res["jobs"])
        errors = 0
        unresolved = sum(len(j[3].unknown) for j in res["jobs"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_info = {name: dict(obj.cache_info()._asdict()) for name, obj in caches.items()}

    failures: list = []
    check_s = 0.0
    if args.check:
        t = time.perf_counter()
        if decide:
            failures, errors = check_decide(bk, inputs, res, inputs["seed"])
        else:
            failures = check_fragment(bk, inputs, res, inputs["seed"])
            errors = len(failures)
        check_s = time.perf_counter() - t
    if decide:
        counts = decide_counts(inputs, res)
    else:
        counts = fragment_counts(res, sys.modules["bikripke.semantics"])
    out = {"setup_s": setup_s, "timed_s": res["timed_s"], "attempted": attempted,
           "errors": errors, "unresolved": unresolved, "peak_rss_mb": peak_rss_mb,
           "latency_ms": [x * 1e3 for x in res["latency"]] if args.mode == "timed" else [],
           "rest_ms": [x * 1e3 for x in res["rest"]] if args.mode == "timed" else [],
           "cache_info": cache_info, "counts": counts, "failures": failures[:20],
           "check_s": check_s, "speed": speed.summary() if speed else None}
    if tracer is not None:
        out["trace"] = layer_report(tracer, timed_spans, cache_info)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


def layer_report(tracer, timed_spans: tuple, cache_info: dict) -> dict:
    own = tracer.span_self_times()
    names = tracer.label_names()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for label, t in zip(tracer.label, own):
        self_s[names[label]] += t
        calls[names[label]] += 1
    # The lru_cache behind decide, as read right after the timed phase.
    info = cache_info.get("theories._decide_cached", {"hits": 0, "misses": 0})
    return {"self_s": dict(self_s), "calls": dict(calls), "routes": dict(tracer.routes),
            "cm_worlds": {str(k): v for k, v in tracer.cm_worlds.items()},
            "simulate_ok": tracer.simulate_ok,
            "timed_self_s": sum(own[timed_spans[0]:timed_spans[1]]),
            "decide_cache_hits": info["hits"],
            "decide_cache_lookups": info["hits"] + info["misses"]}


if __name__ == "__main__":
    sys.exit(main())
