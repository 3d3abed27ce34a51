"""`cli` workload: one `python -m layext.cli` child process per query.

Why: this is what a shell user pays.  Interpreter start-up and imports
dominate, nothing carries over between queries, and `jsonio` and `cli` are
measured only here.

The queries cover all seven subcommands, with and without `--json`, in a
fixed rotation whose order the seed shuffles.  Every tenth input is
malformed, cycling through fixed variants of four kinds (wrong JSON type,
non-numeric string, missing key, broken JSON).  A malformed input must end
with exit code 1 and exactly one `error:` line on stderr, or it counts as
failed.  The variants that end in a traceback in the current CLI (ROADMAP
item 2) are not in the timed mix; `probe` runs them once per run and the
details line reports them.  Answers of well-formed inputs are compared with
the oracles of the other workloads.

The child runs this checkout's `src` (first on PYTHONPATH), because layext
is not installed.  In a traced run the same inputs go through `cli.main`
in-process, so the spans of `jsonio` and `cli` can be recorded.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import oracles as O
import wl_algebraic as alg
import wl_lattice as lat
from common import INF, Query, rand_fraction

SUBCOMMANDS = ("decompose", "eval", "closure", "kernel", "semifield", "torsion-degree", "rank")
MALFORMED_EVERY = 10
QUERIES_PER_SECOND = 12  # pool size: about 1.6 times the program's rate when written
INPROC_POOL = 4  # a traced run calls cli.main in-process, which is much faster
TRACED_QUERIES_PER_SECOND = 40  # fixed traced pass, within the in-process pool
TIMEOUT_S = 60


def workdir(root):
    return root / "perfbench" / "out" / f"cli-{os.getpid()}"


def normalized(base, rc, out, err):
    """The answer with this run's work directory masked, so runs can be compared."""
    prefix = str(base) + os.sep
    return rc, out.replace(prefix, "<work>/"), err.replace(prefix, "<work>/")


def rat(q) -> str:
    return str(Fraction(q))


def count(x):
    return "infinite" if x == INF else x


# --- JSON documents, written by the benchmark itself (jsonio is under test) ----

def presentation_doc(spec: lat.Spec):
    doc = {"base": [rat(b) for b in spec.base],
           "generators": [{"num": rat(v)} if v is not None else {"sym": f"s{i}"} for i, v in enumerate(spec.values)]}
    if spec.rels:
        doc["relations"] = [{"exps": list(e), "beta": rat(b)} for e, b in spec.rels]
    return doc


def generator_doc(gen: alg.Gen):
    return {"m": {str(d): rat(c) for d, c in enumerate(gen.m) if c}, "interval": [rat(gen.lo), rat(gen.hi)]}


def small_spec(rng, mixed=None):
    n = rng.randint(2, 5)
    mixed = rng.random() < 0.3 if mixed is None else mixed
    return lat.gen_spec(rng, n, mixed=mixed)


# --- well-formed queries: (arguments, JSON files, check of the result) -----------

def q_decompose(rng):
    spec = small_spec(rng)
    files = {"p.json": presentation_doc(spec)}

    def check(res):
        full = spec.full_rank()
        return same(res, "free_rank", spec.free if spec.sym else 0) and same(res, "rank", count(full)) and \
            (not spec.numeric or same(res, "torsion_orders", [full] if full > 1 else []))
    return ["decompose", "p.json"], files, check


def q_eval(rng):
    triples = [(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-6, 6)), e)
               for e in sorted(rng.sample(range(8), rng.randint(2, 5)))]
    lay, nu = Fraction(rng.randint(1, 4), rng.randint(1, 3)), rand_fraction(rng, 2, 2)
    vals = [v + e * nu for _, v, e in triples]
    best = max(vals)
    ess = [e for (_, _, e), tv in zip(triples, vals) if tv == best]
    layer = sum((c * lay ** e for (c, _, e), tv in zip(triples, vals) if tv == best), Fraction(0))
    files = {"f.json": [{"layer": rat(c), "value": rat(v), "exp": e} for c, v, e in triples],
             "a.json": {"layer": {"kind": "rational", "value": rat(lay)}, "value": rat(nu)}}

    def check(res):
        return same(res, "layer", rat(layer)) and same(res, "value", rat(best)) and same(res, "essential", ess)
    return ["eval", "f.json", "a.json"], files, check


def q_closure(rng):
    values = [lat.numeric_value(rng) for _ in range(rng.randint(0, 3))]
    value = rng.choice([lat.numeric_value(rng), rng.choice(values) if values else Fraction(2), "t"])
    if isinstance(value, str):
        contained, new = False, {"sym": value}
    else:
        contained = O.in_group(value, O.qgcd_all([Fraction(1)] + values))
        new = {"num": rat(value)}
    gens = [{"num": rat(v)} for v in values] + ([] if contained else [new])
    files = {"h.json": {"sort": {"kind": "base"}, "value": {"base": ["1"], "generators": [{"num": rat(v)} for v in values]}},
             "a.json": {"layer": {"kind": "rational", "value": rat(Fraction(rng.randint(1, 5), rng.randint(1, 3)))},
                        "value": {"sym": value} if isinstance(value, str) else rat(value)}}

    def check(res):
        desc = {"sort": {"kind": "base"}, "value": {"base": ["1"], "generators": gens}}
        return same(res, "descriptor", desc) and same(res, "layerset_semiring", contained)
    return ["closure", "h.json", "a.json"], files, check


def q_kernel(rng):
    gen = alg.Gen(alg.eisenstein(rng, rng.randint(2, 4)), irreducible=True)
    num, den, want = alg.kernel_pair(rng, gen)
    files = {"a.json": {"poly": {str(d): rat(c) for d, c in num.items()}},
             "b.json": {"poly": {str(d): rat(c) for d, c in den.items()}},
             "g.json": generator_doc(gen)}
    return ["kernel", "a.json", "b.json", "g.json"], files, lambda res: same(res, "in_kernel", want)


def q_semifield(rng):
    spec = small_spec(rng)
    files = {"h.json": {"sort": {"kind": "base"}, "value": presentation_doc(spec)}}
    rank = spec.full_rank()

    def check(res):
        return same(res, "semifield", rank != INF) and same(res, "sort_part_semifield", True) and \
            same(res, "value_part_semifield", rank != INF) and same(res, "value_part_rank", count(rank))
    return ["semifield", "h.json"], files, check


def q_torsion(rng):
    spec = small_spec(rng, mixed=False)
    exps = lat.any_vector(rng, spec)
    want = count(O.order_mod(spec.x(exps), spec.g))
    files = {"p.json": presentation_doc(spec)}
    return ["torsion-degree", "p.json", "--exps=" + ",".join(map(str, exps))], files, \
        lambda res: same(res, "degree", want)


def q_rank(rng):
    spec = small_spec(rng, mixed=False)
    S = lat.subset(rng, spec.n, 0, spec.n - 1)
    want = count(spec.rank_over(S) if S else spec.full_rank())
    files = {"p.json": presentation_doc(spec)}
    return ["rank", "p.json", "--over=" + ",".join(map(str, S))], files, lambda res: same(res, "rank", want)


QUERY_MAKERS = dict(zip(SUBCOMMANDS, (q_decompose, q_eval, q_closure, q_kernel, q_semifield, q_torsion, q_rank)))


# --- malformed variants: (kind, arguments, JSON files) ------------------------------

SCALAR_3 = {"layer": {"kind": "rational", "value": "3"}, "value": "0"}
SQRT2 = {"m": {"2": "1", "0": "-2"}, "interval": ["1", "2"]}


def broken(doc):
    """The first half of a document's JSON text."""
    text = json.dumps(doc)
    return text[: len(text) // 2]


# The timed mix: variants the CLI rejects with a clean error.  Wrong-type
# and non-numeric inputs have one such variant each, so missing keys and
# broken JSON fill the rest of the rotation.
MALFORMED = (
    ("wrong_type", ["eval", "f.json", "a.json"], {"f.json": {"layer": "1", "value": "0", "exp": 1}, "a.json": SCALAR_3}),
    ("non_numeric", ["rank", "p.json"], {"p.json": {"base": ["1"], "generators": [{"num": "abc"}, {"num": "1/3"}]}}),
    ("missing_key", ["closure", "h.json", "a.json"],
     {"h.json": {"sort": {"kind": "base"}, "value": {"base": ["1"]}}, "a.json": {"layer": {"kind": "rational", "value": "2"}}}),
    ("broken_json", ["decompose", "p.json"], {"p.json": broken({"base": ["1"], "generators": [{"num": "1/2"}]})}),
    ("missing_key", ["kernel", "a.json", "b.json", "g.json"],
     {"a.json": {"poly": {"2": "1"}}, "b.json": {"poly": {"0": "2"}}, "g.json": {"m": SQRT2["m"]}}),
    ("broken_json", ["semifield", "h.json"], {"h.json": broken({"sort": {"kind": "base"}, "value": {"base": ["1"]}})}),
    ("missing_key", ["eval", "f.json", "a.json"], {"f.json": [{"value": "0", "exp": 1}], "a.json": SCALAR_3}),
    ("broken_json", ["kernel", "a.json", "b.json", "g.json"],
     {"a.json": broken({"poly": {"2": "1"}}), "b.json": {"poly": {"0": "2"}}, "g.json": SQRT2}),
)

# Variants that end in a traceback instead (ROADMAP item 2).  They are kept
# out of the timed mix, where every query must pass, and each untraced run
# feeds them to the CLI once after the timed phase and reports which still
# break the exit/stderr contract (`probe`).
KNOWN_BREAKS = (
    ("wrong_type", ["semifield", "h.json"], {"h.json": {"sort": "base", "value": {"base": ["1"], "generators": []}}}),
    ("non_numeric", ["torsion-degree", "p.json", "--exps=1,0"],
     {"p.json": {"base": ["1"], "generators": [{"num": "1/2"}, {"sym": "g"}],
                 "relations": [{"exps": ["a", 2], "beta": "1"}]}}),
    ("wrong_type", ["decompose", "p.json"], {"p.json": {"base": ["1"], "generators": 5}}),
    ("non_numeric", ["eval", "f.json", "a.json"], {"f.json": [{"layer": "1", "value": "0", "exp": "x"}], "a.json": SCALAR_3}),
)


# --- running ------------------------------------------------------------------------

def write_files(base, prefix, files):
    """Write a query's documents into the work directory; returns name -> path."""
    paths = {}
    for name, doc in files.items():
        path = base / f"{prefix}-{name}"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def runner(argv, root, inproc, lx):
    base = workdir(root)
    if inproc:
        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                rc = lx.cli.main(argv, out=out, err=err)
            except SystemExit as e:
                rc = e.code
            return normalized(base, rc, out.getvalue(), err.getvalue())
        return run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "layext.cli"] + argv

    def run():
        p = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root, timeout=TIMEOUT_S)
        return normalized(base, p.returncode, p.stdout, p.stderr)
    return run


class TextResult(dict):
    """Payload lines `key: value` of the human-readable report, values unparsed."""

    @classmethod
    def parse(cls, out):
        return cls(line.partition(": ")[::2] for line in out.splitlines()[1:])


def same(res, key, want) -> bool:
    """Whether the report shows `want` under `key` (rendered as the CLI renders it in text mode)."""
    got = res[key]
    if isinstance(res, TextResult):
        return got == (json.dumps(want, sort_keys=True) if isinstance(want, (dict, list)) else str(want))
    if isinstance(want, bool):
        return got is want
    return type(got) is type(want) and got == want


def check_wellformed(sub, json_mode, check, ans) -> bool:
    rc, out, err = ans
    if rc != 0 or err:
        return False
    if json_mode:
        doc = json.loads(out)
        return doc["command"] == sub and check(doc["result"])
    return out.startswith(f"command: {sub}\n") and check(TextResult.parse(out))


def check_malformed(ans) -> bool:
    rc, out, err = ans
    lines = err.splitlines()
    return rc == 1 and len(lines) == 1 and lines[0].startswith("error:") and not out


def draw(rng, seconds):
    """(kind, arguments, JSON files, check or None for a malformed input) per query."""
    data = []
    order = []
    for i in range(int(seconds * QUERIES_PER_SECOND * INPROC_POOL) + 1):
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            kind, args, files = MALFORMED[(i // MALFORMED_EVERY) % len(MALFORMED)]
            data.append((f"{args[0]}:{kind}", args, files, None))
            continue
        if not order:
            order = [(sub, js) for sub in SUBCOMMANDS for js in (False, True)]
            rng.shuffle(order)
        sub, json_mode = order.pop()
        args, files, check = QUERY_MAKERS[sub](rng)
        if json_mode:
            args = args + ["--json"]
        data.append((f"{sub}{' --json' if json_mode else ''}", args, files,
                     lambda ans, s=sub, j=json_mode, c=check: check_wellformed(s, j, c, ans)))
    return data


def stage(data, root, inproc):
    """Write every query's JSON files; returns (kind, argv, check) per query.

    Run once before the timed set-ups: how fast the host creates files is
    not something a change to the program can move.
    """
    base = workdir(root)
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    if not inproc:
        data = data[: len(data) // INPROC_POOL]
    staged = []
    for i, (kind, args, files, check) in enumerate(data):
        paths = write_files(base, f"q{i}", files)
        staged.append((kind, [paths.get(a, a) for a in args], check))
    return staged


def build(lx, staged, inproc=False, root=None, **_):
    queries = []
    for kind, argv, check in staged:
        run = runner(argv, root, inproc, lx)
        if check is None:
            queries.append(Query(kind, run, check_malformed, malformed=True))
        else:
            queries.append(Query(kind, run, check))
    return queries


def probe(root):
    """Feed each of KNOWN_BREAKS to the CLI once; returns variant -> whether it kept the contract."""
    base = workdir(root)
    kept = {}
    for i, (kind, args, files) in enumerate(KNOWN_BREAKS):
        paths = write_files(base, f"k{i}", files)
        ans = runner([paths.get(a, a) for a in args], root, False, None)()
        kept[f"{args[0]}:{kind}"] = check_malformed(ans)
    return kept


def cleanup(root):
    shutil.rmtree(workdir(root), ignore_errors=True)


def corrupt(q, ans):
    if q.malformed:
        return 0, "", ""
    rc, out, err = ans
    if "--json" in q.kind:
        doc = json.loads(out)
        doc["result"] = {key: "wrong" for key in doc["result"]}
        return rc, json.dumps(doc), err
    lines = out.splitlines()
    return rc, "\n".join(lines[:1] + [line.split(": ")[0] + ": wrong" for line in lines[1:]]) + "\n", err
