"""Seeded inputs, independent output checks and the three workloads.

An item is ``(kind, payload, expect)``: ``kind`` names its family, ``payload``
is plain data (marshal-able, so warm-up items can be sent to a fresh
interpreter) and ``expect`` is what the check compares the output with.

Inputs are built here, apart from the program: threshold sequences come from
creation sequences, random lists from the Zverovich-Zverovich condition, and
generated components are composed by :func:`compose_runs`. ``unigraph`` is
used only to draw typed components (``generate``) and to emit their catalog
sequences (``type_to_sequence``); its own composition is quadratic in the
component count and is never used to build inputs.
"""

from __future__ import annotations

import json
import math
import operator
import random
from array import array
from collections import Counter
from itertools import islice

# generate() sets up binomial weights whose cost grows with k squared, so
# many-component inputs are drawn in chunks of at most this many components.
CHUNK = 200
BAD_TAIL = ((2, 6),)  # C6 or 2K3: indecomposable, not a unigraph

# Item mix. Sizes are fixed, so every seed gives the same cost profile and
# only the content of the items varies. Each family's sizes sit on a
# geometric grid over its range, and the families overlap, so item costs
# spread smoothly over about two decades: a percentile then moves in
# proportion to a slow spell of the machine instead of jumping between two
# clusters of items.


def grid(lo: float, hi: float, count: int) -> list[int]:
    """``count`` sizes at the midpoints of equal log-width bins of [lo, hi]."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def rng_for(*parts) -> random.Random:
    """A generator seeded from text, so seeds do not depend on hash salting."""
    return random.Random(":".join(map(str, parts)))


def runs_text(runs) -> str:
    return ",".join(f"{d}^{m}" if m > 1 else str(d) for d, m in runs) or "-"


def runs_of(degrees) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(degrees).items(), reverse=True))


def merge_runs(*run_lists) -> tuple[tuple[int, int], ...]:
    counts: Counter = Counter()
    for runs in run_lists:
        for d, m in runs:
            counts[d] += m
    return tuple(sorted(counts.items(), reverse=True))


def compose_runs(heads, tail) -> tuple[tuple[int, int], ...]:
    """Runs of heads[0] o heads[1] o ... o tail in one pass.

    ``heads`` holds (clique runs, stable runs) pairs, outermost first. Head
    i's clique side gains the order of everything below it plus the clique
    sizes above it; its stable side gains the clique sizes above it; the
    tail gains every clique size. The shifted blocks are already
    non-increasing in the order K_0..K_last, tail, S_last..S_0, so only
    equal neighbours at block boundaries need merging.
    """
    below = [0] * len(heads)
    acc = sum(m for _, m in tail)
    for i in range(len(heads) - 1, -1, -1):
        below[i] = acc
        acc += sum(m for _, m in heads[i][0]) + sum(m for _, m in heads[i][1])
    above = 0
    kblocks, sblocks = [], []
    for (kruns, sruns), low in zip(heads, below):
        kblocks.append([(d + low + above, m) for d, m in kruns])
        sblocks.append([(d + above, m) for d, m in sruns])
        above += sum(m for _, m in kruns)
    out: list[list[int]] = []
    for block in kblocks + [[(d + above, m) for d, m in tail]] + sblocks[::-1]:
        for d, m in block:
            if out and out[-1][0] == d:
                out[-1][1] += m
            elif out and out[-1][0] < d:
                raise RuntimeError("composed blocks out of order")
            else:
                out.append([d, m])
    return tuple((d, m) for d, m in out)


def component_runs(U, comps):
    """Catalog runs of typed components: (clique, stable) pairs for the
    heads, and the merged runs of the last one (the tail)."""
    heads = []
    for t in comps[:-1]:
        ps = U.type_to_sequence(t)
        heads.append((ps.kpart.runs, ps.spart.runs))
    last = U.type_to_sequence(comps[-1])
    if isinstance(last, U.DegreeSequence):
        return heads, last.runs
    return heads, merge_runs(last.kpart.runs, last.spart.runs)


def generated(U, rng, n: int, k: int, keep_tail: bool = True):
    """About k typed components with orders summing to about n, head-first.

    Each chunk is one generate() call; every chunk's tail is dropped except
    the last one's when ``keep_tail`` holds, so the heads of several calls
    form one decomposition.
    """
    chunks = max(1, math.ceil(k / CHUNK))
    comps = []
    for j in range(chunks):
        kj = k // chunks + (j < k % chunks)
        keep = keep_tail and j == chunks - 1
        want = kj if keep else kj + 1
        nj = max(want, round(n * kj / k))
        part = U.generate(U.GenSpec(nj, want, rng.randrange(2**31)))
        comps += part if keep else part[:-1]
    return comps


# ---------------------------------------------------------------- recognize


def generated_item(U, rng, kind, n, k):
    comps = generated(U, rng, n, k)
    heads, tail = component_runs(U, comps)
    runs = compose_runs(heads, tail)
    expect = {"tags": [t.tag() for t in comps], "n": sum(m for _, m in runs)}
    return (kind, runs_text(runs), expect)


def threshold_item(rng, n: int, blocks: int):
    """Threshold graph from a creation sequence of alternating blocks of
    dominating and isolated additions.

    A vertex added as dominating at position p has degree (p - 1) plus the
    dominating vertices added after it; an isolated one has only the
    latter. The first vertex together with all later dominating vertices is
    a maximum clique, and with all later isolated vertices a maximum
    independent set.
    """
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    first_dom = rng.random() < 0.5
    doms = [(j % 2 == 0) == first_dom for j in range(blocks)]
    dom_after = sum(c for c, dom in zip(sizes, doms) if dom)
    counts: Counter = Counter()
    start = 0
    for c, dom in zip(sizes, doms):
        if dom:
            dom_after -= c
            counts[start + c - 1 + dom_after] += c
        else:
            counts[dom_after] += c
        start += c
    n_dom = sum(c for c, dom in zip(sizes, doms) if dom)
    omega = 1 + n_dom - (1 if first_dom else 0)
    alpha = 1 + (n - n_dom) - (0 if first_dom else 1)
    runs = tuple(sorted(counts.items(), reverse=True))
    return ("threshold", runs_text(runs), {"n": n, "omega": omega, "alpha": alpha})


def complete_item(n: int, complement: bool):
    """K_n or its complement, with their closed-form parameters."""
    if complement:
        params = (1, n, 0, 1, n - 1, n)
        return ("complete", f"0^{n}", {"n": n, "params": params})
    params = (n, 1, n - 1, n, n - 1, n)
    return ("complete", f"{n - 1}^{n}", {"n": n, "params": params})


def bad_tail_item(U, rng, heads_wanted: int):
    """Generated heads over the 2^6 tail: the first failing component is
    the tail, so the failure index is the number of heads."""
    comps = generated(U, rng, 16 * heads_wanted, heads_wanted, keep_tail=False)
    heads = []
    for t in comps:
        ps = U.type_to_sequence(t)
        heads.append((ps.kpart.runs, ps.spart.runs))
    runs = compose_runs(heads, BAD_TAIL)
    return ("bad-tail", runs_text(runs), {"tags": [t.tag() for t in comps]})


RECOGNIZE_SLOTS = (
    [("few-runs", k) for k in grid(6, 90, 4)]
    + [("bad-tail", k) for k in grid(100, 1400, 4)]
    + [("many-comp", k) for k in grid(150, 1200, 4)]
    + [("threshold", n) for n in grid(2000, 25000, 4)]
    + [
        ("complete" if i % 2 == 0 else "co-complete", n)
        for i, n in enumerate(grid(2000, 25000, 4))
    ]
)


def recognize_item(U, rng, family, size):
    """few-runs and many-comp sizes are component counts, bad-tail sizes
    head counts, and the others vertex counts."""
    if family == "few-runs":
        return generated_item(U, rng, family, 10**6, size)
    if family == "many-comp":
        return generated_item(U, rng, family, 16 * size, size)
    if family == "bad-tail":
        return bad_tail_item(U, rng, size)
    if family == "threshold":
        return threshold_item(rng, size, rng.randint(8, 256))
    return complete_item(size, complement=family == "co-complete")


def recognize_round(U, rng):
    """Four items of each family. Strip-heavy families (threshold, K_n) stay
    below n = 25 000 and generated ones below k = 1200, so that no family
    takes more than about a third of a round."""
    for family, size in RECOGNIZE_SLOTS:
        yield recognize_item(U, rng, family, size)


def recognize_warmup(U, rng):
    return [
        generated_item(U, rng, "few-runs", 10**6, 8),
        generated_item(U, rng, "many-comp", 1600, 100),
        threshold_item(rng, 1000, 16),
        complete_item(1000, False),
        complete_item(1000, True),
        bad_tail_item(U, rng, 50),
    ]


def check_recognize(U, item, out):
    kind, _, expect = item
    s, report, params = out
    if kind == "bad-tail":
        heads = len(expect["tags"])
        if report.is_unigraph or report.failure_index != heads or params is not None:
            return f"verdict {report.is_unigraph} at {report.failure_index}, heads {heads}"
        if report.tags() != expect["tags"]:
            return "head tags differ from the generated tags"
        return None
    if s.n != expect["n"] or not report.is_unigraph or params is None:
        return f"n={s.n}, unigraph={report.is_unigraph}"
    n = expect["n"]
    if params.beta != n - params.alpha:
        return f"beta {params.beta} != n - alpha {n - params.alpha}"
    if "tags" in expect and report.tags() != expect["tags"]:
        return "tags differ from the generated tags"
    if kind == "threshold" and (params.omega, params.alpha) != (
        expect["omega"],
        expect["alpha"],
    ):
        return f"omega/alpha {params.omega}/{params.alpha} != {expect['omega']}/{expect['alpha']}"
    if kind == "complete":
        got = (params.omega, params.alpha, params.beta, params.chi, params.fix, params.dist)
        if got != expect["params"]:
            return f"params {got} != {expect['params']}"
    return None


# --------------------------------------------------------------- screen-raw


def raw_list(rng, n: int, a: int, b: int, odd: bool = False):
    """n degrees drawn from [a, b], one of them nudged to the requested parity.

    By Zverovich-Zverovich every even-sum list is graphical when
    n >= (a + b + 1)^2 / 4a; lists outside that bound are refused here.
    """
    if (a + b + 1) ** 2 > 4 * a * n:
        raise RuntimeError("raw list outside the Zverovich-Zverovich bound")
    # drawing from a list shares one int object per value, as a parsed list would
    raw = rng.choices(list(range(a, b + 1)), k=n)
    if sum(raw) % 2 != odd:
        i = rng.randrange(n)
        raw[i] += 1 if raw[i] < b else -1
    return raw


def wide_list(rng, n: int, width: int, odd: bool = False):
    """Up to ``width`` distinct degrees starting at a in [width, 8 width].

    With a >= width, (a + b + 1)^2 <= 9a^2 <= 4an while a <= 4n/9.
    """
    hi = min(8 * width, 4 * n // 9)
    a = round(math.exp(rng.uniform(math.log(width), math.log(hi))))
    return raw_list(rng, n, a, a + width - 1, odd)


def out_of_range_item():
    """A fixed list (independent of --seed) holding one degree equal to n."""
    n = 10**5
    raw = wide_list(rng_for("screen-raw", "out-of-range"), n, 2000)
    raw[n // 2] = n
    return ("raw-oor", raw, None)


def log_uniform(rng, lo, hi) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# (kind, n, distinct degrees: thousands, or tens for every fourth list)
SCREEN_SLOTS = [
    ("raw", n, "tens" if i % 4 == 1 else "thousands")
    for i, n in enumerate(grid(10**5, 10**6, 8))
] + [("raw-odd", n, "thousands") for n in grid(10**5, 10**6, 2)]


def screen_round(U, rng):
    """Eight graphical lists, two odd-sum lists and the fixed out-of-range
    list, which is left out of the latency figures."""
    for kind, n, distinct in SCREEN_SLOTS:
        width = log_uniform(rng, 2000, 8000) if distinct == "thousands" else rng.randint(10, 100)
        yield (kind, wide_list(rng, n, width, odd=kind == "raw-odd"), None)
    yield out_of_range_item()


def screen_warmup(U, rng):
    return [
        ("raw", wide_list(rng, 10**5, 2000), None),
        ("raw-odd", wide_list(rng, 10**5, 2000, odd=True), None),
    ]


def check_screen(U, item, out):
    kind, raw, _ = item
    s, graphical, d, report = out
    if s.runs != runs_of(raw):
        return "normalize runs differ from the list's own counts"
    if kind == "raw-odd":
        return "odd degree sum reported graphical" if graphical else None
    if not graphical:
        return "Zverovich-Zverovich list reported not graphical"
    if sum(c.order for c in d.components) + d.tail.n != len(raw):
        return "decomposition does not cover every vertex"
    if report.is_unigraph and report.failure_index is not None:
        return "unigraph verdict with a failure index"
    return None


# -------------------------------------------------------------------- write


GEN_SLOTS = [(10**4 if i % 2 == 0 else 10**5, k) for i, k in enumerate(grid(100, 400, 8))]


def check_gen(U, item, out):
    n, k, _ = item[1]
    comps, seq = out
    if len(comps) != k or sum(t.order for t in comps) != n:
        return f"{len(comps)} components of total order {sum(t.order for t in comps)}"
    if seq.runs != compose_runs(*component_runs(U, comps)):
        return "compose_types differs from the one-pass composition"
    return None


def sparse_item(rng, n: int):
    return ("sparse", runs_of(raw_list(rng, n, 1, 6)), None)


def dense_item(U, rng, n: int):
    """The generated unigraph, of six drawn, whose edge density is closest
    to 0.55: the edge count sets the cost of emitting the edges."""
    target = 0.55 * n * (n - 1)
    best = None
    for _ in range(6):
        comps = U.generate(U.GenSpec(n, rng.randint(4, 12), rng.randrange(2**31)))
        runs = compose_runs(*component_runs(U, comps))
        miss = abs(sum(d * m for d, m in runs) - target)
        if best is None or miss < best[0]:
            best = (miss, runs)
    return ("dense", best[1], None)


REALIZE_SLOTS = [("sparse", n) for n in grid(500, 1400, 4)] + [
    ("dense", n) for n in grid(400, 900, 4)
]


def write_round(U, rng):
    """Eight generate-compose items, then four sparse and four dense
    realize items."""
    for n, k in GEN_SLOTS:
        yield ("gen", (n, k, rng.randrange(2**31)), None)
    for kind, n in REALIZE_SLOTS:
        yield sparse_item(rng, n) if kind == "sparse" else dense_item(U, rng, n)


def write_warmup(U, rng):
    return [
        ("gen", (10**4, 100, rng.randrange(2**31)), None),
        sparse_item(rng, 300),
        dense_item(U, rng, 200),
    ]


def edge_list_degrees(text: str):
    """Degrees counted from an ``n m`` / ``u v`` edge list, or a reason why
    the list is not a simple graph on n vertices. Works through the text in
    chunks, so it holds far less than the program's own output path."""
    head, _, body = text.partition("\n")
    n, m = map(int, head.split())
    deg: Counter = Counter()
    keys = array("q")
    pos = 0
    while pos < len(body):
        end = body.find("\n", pos + (1 << 20))
        end = len(body) if end < 0 else end + 1
        nums = list(map(int, body[pos:end].split()))
        us, vs = nums[0::2], nums[1::2]
        if len(us) != len(vs) or any(map(operator.eq, us, vs)):
            return None, "self-loop or malformed line"
        deg.update(us)
        deg.update(vs)
        keys.extend(u * n + v if u < v else v * n + u for u, v in zip(us, vs))
        pos = end
    if len(keys) != m:
        return None, f"header says {m} edges, found {len(keys)}"
    if deg and (min(deg) < 0 or max(deg) >= n):
        return None, "vertex out of range"
    ordered = sorted(keys)
    if any(map(operator.eq, ordered, islice(ordered, 1, None))):
        return None, "repeated edge"
    return [deg[v] for v in range(n)], None


def check_write(U, item, out):
    if item[0] == "gen":
        return check_gen(U, item, out)
    _, text = out
    deg, why = edge_list_degrees(text)
    if why:
        return why
    if runs_of(deg) != tuple(item[1]):
        return "realized degrees differ from the input"
    return None


# ---------------------------------------------------------------- CLI items


def recognize_cli(U):
    _, text, expect = generated_item(U, rng_for("recognize", "cli"), "few-runs", 10**6, 32)

    def check(stdout):
        got = json.loads(stdout)
        return got["isUnigraph"] is True and got["components"] == expect["tags"]

    return ["--json", "is-unigraph", "-d", text], check


def screen_cli(U):
    raw = wide_list(rng_for("screen-raw", "cli"), 2 * 10**4, 2000)
    _, verdict = U.is_unigraph(U.normalize(raw))

    def check(stdout):
        got = json.loads(stdout)
        return got["isUnigraph"] is verdict.is_unigraph and got["failureIndex"] == verdict.failure_index

    return ["--json", "is-unigraph", "-d", ",".join(map(str, raw))], check


def write_cli(U):
    _, runs, _ = sparse_item(rng_for("write", "cli"), 1000)

    def check(stdout):
        deg, why = edge_list_degrees(stdout)
        return why is None and runs_of(deg) == runs

    return ["realize", "-d", runs_text(runs)], check


# ------------------------------------------------------------ scaling probe


def recognize_scale(U, seed, timer):
    """Threshold sequences with 16 blocks at n and 10n."""
    rng = rng_for("recognize", "scale", seed)
    small, large = (threshold_item(rng, n, 16) for n in (10**4, 10**5))
    return timer(large) / timer(small)


def gen_scale(U, seed, timer):
    """Generated items with k = 100 at n and 10n."""
    rng = rng_for("write", "scale", seed)
    s = rng.randrange(2**31)
    return timer(("gen", (10**5, 100, s), None)) / timer(("gen", (10**4, 100, s), None))


WORKLOADS = {
    "recognize": dict(
        round=recognize_round, warmup=recognize_warmup, check=check_recognize,
        cli=recognize_cli, scale=recognize_scale,
    ),
    "screen-raw": dict(
        round=screen_round, warmup=screen_warmup, check=check_screen,
        cli=screen_cli, scale=None,
    ),
    "write": dict(
        round=write_round, warmup=write_warmup, check=check_write,
        cli=write_cli, scale=gen_scale,
    ),
}
