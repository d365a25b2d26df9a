"""Reference answers for the benchmark's jobs, computed without ``rklab``.

Preorders and domination graphs are recomputed from the generated pairs
with bitset closures; widths use Dilworth's theorem (classes minus a
maximum matching).  Blueprint and pipeline outputs are predicted from the
documented builder plan and operator sizing rules.  Small word
congruences go through ``brute_congruence_count`` from ``tests/oracles.py``
on ground instances transcribed here from the identity-schema
definitions, and small preorders through ``brute_height``/``brute_width``.
"""
from __future__ import annotations

import itertools
from math import comb

from gen import Graph, Order, Pipeline

# -- preorders ------------------------------------------------------------------


def closure(n: int, pairs) -> list[int]:
    """reach[i] has bit j set when i <= j in the reflexive-transitive closure."""
    reach = [1 << i for i in range(n)]
    for i, j in pairs:
        reach[i] |= 1 << j
    for k in range(n):
        bk = 1 << k
        rk = reach[k]
        for i in range(n):
            if reach[i] & bk:
                reach[i] |= rk
    return reach


def quotient(n: int, reach: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Classes in order of their least member, and the class order as bitsets."""
    cls_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if cls_of[i] >= 0:
            continue
        members = tuple(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
        for j in members:
            cls_of[j] = len(classes)
        classes.append(members)
    leq = []
    for members in classes:
        row = 0
        r = reach[members[0]]
        for b, other in enumerate(classes):
            if r >> other[0] & 1:
                row |= 1 << b
        leq.append(row)
    return classes, leq


def covers(leq: list[int]) -> list[tuple[int, int]]:
    k = len(leq)
    out = []
    for a in range(k):
        for b in range(k):
            if a == b or not leq[a] >> b & 1:
                continue
            if not any(c not in (a, b) and leq[a] >> c & 1 and leq[c] >> b & 1 for c in range(k)):
                out.append((a, b))
    return out


def height(leq: list[int]) -> int:
    k = len(leq)
    below = [sum(1 for a in range(k) if leq[a] >> b & 1) for b in range(k)]
    best = [1] * k
    for b in sorted(range(k), key=lambda c: below[c]):
        for a in range(k):
            if a != b and leq[a] >> b & 1:
                best[b] = max(best[b], best[a] + 1)
    return max(best, default=0)


def width(leq: list[int]) -> int:
    """Dilworth: classes minus a maximum matching of the strict order."""
    k = len(leq)
    succ = [[b for b in range(k) if b != a and leq[a] >> b & 1] for a in range(k)]
    match = [-1] * k

    def augment(a: int, seen: list[bool]) -> bool:
        for b in succ[a]:
            if not seen[b]:
                seen[b] = True
                if match[b] < 0 or augment(match[b], seen):
                    match[b] = a
                    return True
        return False

    return k - sum(augment(a, [False] * k) for a in range(k))


def small_height_width(n: int, reach: list[int]) -> tuple[int, int]:
    """The test-suite oracles, for preorders of at most eight elements."""
    from oracles import brute_height, brute_width

    rel = [[bool(reach[i] >> j & 1) for j in range(n)] for i in range(n)]
    return brute_height(rel), brute_width(rel)


def preorder_lines(order: Order) -> list[str]:
    """``preorder --quotient --height --width --machine``."""
    reach = closure(order.n, order.pairs)
    classes, leq = quotient(order.n, reach)
    if order.n <= 8:
        h, w = small_height_width(order.n, reach)
    else:
        h, w = height(leq), width(leq)
    out = [f"elements={order.n}"]
    out += [f"class.{ci}=" + ",".join(map(str, m)) for ci, m in enumerate(classes)]
    out.append("covers=" + ";".join(f"{a}<{b}" for a, b in covers(leq)))
    out += [f"height={h}", f"width={w}"]
    return out


# -- domination graphs ----------------------------------------------------------


def dominate_lines(g: Graph, rkt: bool) -> list[str]:
    n = len(g.names)
    full = closure(n, [(dst, src) for src, dst, _, _ in g.edges])
    if rkt:
        pairs = ";".join(
            f"{g.names[i]}<={g.names[j]}"
            for i in range(n)
            for j in range(n)
            if i != j and full[i] >> j & 1
        )
        _, leq = quotient(n, full)
        minima = [c for c in range(len(leq)) if not any(d != c and leq[d] >> c & 1 for d in range(len(leq)))]
        return [f"rkt={pairs}", "minima=" + ",".join(map(str, minima))]
    prime = [i for i in range(n) if g.prime[i]]
    sub = [sum(1 << b for b, pb in enumerate(prime) if full[pa] >> pb & 1) for pa in prime]
    classes, leq = quotient(len(prime), sub)
    pc = closure(n, [(dst, src) for src, dst, _, principal in g.edges if principal])
    seen: set[int] = set()
    iso = 0
    for p in prime:
        if p not in seen:
            seen |= {o for o in prime if o == p or (pc[p] >> o & 1 and pc[o] >> p & 1)}
            iso += 1
    out = [f"prime_nodes={len(prime)}", f"iso_types={iso}"]
    out += [
        f"class.{ci}=" + ",".join(g.names[prime[m]] for m in members)
        for ci, members in enumerate(classes)
    ]
    out.append("covers=" + ";".join(f"{a}<{b}" for a, b in covers(leq)))
    return out


# -- cardinals ------------------------------------------------------------------

_RANK = {"w": 1, "w1": 2, "c": 3}


def card_sum(tokens) -> str:
    total, top = 0, None
    for t in tokens:
        if t.isdigit():
            total += int(t)
        elif top is None or _RANK[t] > _RANK[top]:
            top = t
    return top if top is not None else str(total)


# -- operator sizing on the colored base --------------------------------------------


def _extent(colors: int, per_color: int) -> list[int | None]:
    return [c for c in range(colors) for _ in range(per_color)] + [None]


def icp_size(colors: int, per_color: int, depth: int, fan: int) -> int:
    return sum(2 ** (depth if c is None else c) * fan for c in _extent(colors, per_color))


def css_size(colors: int, per_color: int, ceiling: int, fan: int, stubs: int) -> int:
    per_stub = sum(fan if c is None else (ceiling - c + 1) * fan for c in _extent(colors, per_color))
    return stubs * per_stub


def bu_size(colors: int, per_color: int, depth: int, fan: int) -> int:
    ext = _extent(colors, per_color)
    total = 0
    for a in ext:
        for b in ext:
            eff = depth if a is None and b is None else min(c for c in (a, b) if c is not None)
            total += 2**eff * fan
    return total


# -- build ------------------------------------------------------------------------


def build_universe(n: int, plan: list[str], fan: int) -> int:
    """Universe after replaying a plan with one color and split depth 1."""
    return (
        2 * n
        + plan.count("icp") * icp_size(1, 1, 1, fan)
        + plan.count("css") * css_size(1, 1, 1, fan, 2)
        + plan.count("bu") * bu_size(1, 1, 1, fan)
    )


def _components(n: int, reach: list[int]) -> list[list[int]]:
    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for i in range(n):
        for j in range(n):
            if reach[i] >> j & 1:
                comp[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def build_expect(
    order: Order,
    variant: str,
    values: dict[tuple[int, ...], str],
    mode: str,
    partition: dict[int, str],
    out_name: str,
) -> tuple[list[str], list[str], list[str]]:
    """``build --variant V --replay --out F --machine`` with the default
    config (one color, depth 1, fan-out 2).  Returns the stdout lines, the
    pipeline file's base and q-edge lines, and its operator sequence."""
    n = order.n
    reach = closure(n, order.pairs)
    classes, leq = quotient(n, reach)
    cls_of = {e: ci for ci, members in enumerate(classes) for e in members}
    bus = 0
    comps = _components(n, reach)
    bus += comb(len(comps), 2)
    for comp in comps:
        cs = sorted({cls_of[e] for e in comp})
        maxima = [c for c in cs if not any(d != c and leq[c] >> d & 1 for d in cs)]
        bus += comb(len(maxima), 2)
    p_elems = [e for e in range(n) if not partition or partition[e] == "P"]
    npl_elems = [e for e in range(n) if partition and partition[e] == "NPL"]
    if variant in ("t77", "t84"):
        plan = ["icp"] + ["css"] * n
    elif variant == "t91":
        late = len(npl_elems) - (1 if partition[0] == "NPL" else 0)
        plan = ["icp"] + ["css"] * len(p_elems) + ["icp"] * late
    else:
        plan = ["icp"] * max(1, len(npl_elems)) + ["css"] * len(p_elems)
    plan += ["bu"] * bus
    limit_op = "lmt" if mode == "finite" else "lms"
    plan += [limit_op] * sum(1 for v in values.values() if v != "0")
    if variant == "t92":
        plan.append("note")
    universe = build_universe(n, plan, 2)
    p_card = str(n) if mode == "finite" else "w"
    out = [
        f"predicates={n}",
        "plan=" + ";".join(plan),
        f"triple=({p_card},{card_sum(values.values())},c)",
        f"out={out_name}",
        f"universe={universe}",
        f"rk_classes={len(classes)}",
    ]
    for members in sorted(classes, key=list):
        v = values.get(members, "0") if mode == "finite" else "0"
        out.append("il.{" + ",".join(map(str, members)) + "}=" + v)
    head = ["base colors=1 parts=%d per_color=1" % n]
    for members in classes:
        if len(members) > 1:
            ring = list(members)
            head += [f"qedge high={b} low={a} principal=false" for a, b in zip(ring, ring[1:] + ring[:1])]
    head += [
        f"qedge high={classes[b][0]} low={classes[a][0]} principal=true" for a, b in covers(leq)
    ]
    return out, head, plan


# -- apply ----------------------------------------------------------------------

_CHECKS = {
    "icp": ("base-images", "splits", "containment", "disjoint-images"),
    "css": ("color-monotone", "disjoint-images"),
    "bu": ("splits", "containment", "disjoint-images"),
}


def apply_expect(p: Pipeline, out_name: str) -> tuple[list[str], int, int]:
    """``apply --pipeline F --verify --out S --machine``: stdout lines, the
    universe size and the number of recorded applications."""
    universe = p.parts * (p.colors * p.per_color + 1)
    stub_depth: dict[str, int] = {}
    history: list[tuple[str, int]] = []
    for op, a in p.steps:
        if op == "icp":
            depth = int(a["depth"])
            universe += icp_size(p.colors, p.per_color, depth, int(a["fan"]))
            stub_depth[a["sub"]] = depth
        elif op == "css":
            ceiling = stub_depth[a["source"]]
            universe += css_size(p.colors, p.per_color, ceiling, int(a["fan"]), 2**ceiling)
        elif op == "bu":
            universe += bu_size(p.colors, p.per_color, int(a["depth"]), int(a["fan"]))
        if op in ("icp", "css", "bu", "lmt", "lms"):
            history.append((op, int(a.get("fan", "0"))))
    out = [f"universe={universe}"]
    for tag in sorted({op for op, _ in history if op in _CHECKS}):
        apps = [(i, fan) for i, (op, fan) in enumerate(history) if op == tag]
        out.append(f"report=schemes:{tag}")
        out += [f"check.app{i}.{c}=ok" for i, _ in apps for c in _CHECKS[tag]]
        out += [f"fact.app{i}.fan_out={fan}" for i, fan in apps]
        out.append("ok=true")
    out.append(f"out={out_name}")
    return out, universe, len(history)


# -- bounded word congruences ---------------------------------------------------


def _words(alphabet: int, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(alphabet), repeat=length)


def _run(a: int, b: int) -> tuple[int, ...]:
    return tuple(range(a, b + 1))


def instances(system: str, n: int | None, alphabet: int, max_len: int):
    """Ground instances of the lmt/lms identity schemas (sequence length 3),
    both sides nonempty, distinct and within the bound."""
    rules = []
    A, L = alphabet, max_len
    if system == "lmt" and n is not None:
        rules += [((n - 1,), (m,)) for m in range(n, A)] if n - 1 < A else []
        rules += [((m, m), (m,)) for m in range(min(n, A))] if L >= 2 else []
        rules += [(w, (w[-1],)) for w in _words(A, L) if len(w) >= 2 and min(w[:-1]) > w[-1]]
    elif system == "lmt":
        rules += [((m, m), (m,)) for m in range(A)] if L >= 2 else []
        rules += [(w, (w[-1],)) for w in _words(A, L) if len(w) >= 2 and min(w[:-1]) > w[-1]]
        rules += [((a, b), _run(a, b)) for a in range(A) for b in range(a + 1, A) if b - a + 1 <= L]
    else:
        if n is not None:
            rules += [((n - 1,), (m,)) for m in range(n, A)] if n - 1 < A else []
        rules += [(w, (w[-1],) * len(w)) for w in _words(A, L) if len(w) >= 2 and max(w[:-1]) < w[-1]]
        if n is None:
            for w in _words(A, L):
                s = len(w) - 1
                if s >= 1 and w[0] + s <= w[-1]:
                    rules.append((w, _run(w[0], w[0] + s)))
            for w in _words(A, L):
                s, t = len(w) - 1, w[-1] - w[0]
                if s >= 1 and 0 < t < s:
                    rules.append((w, _run(w[0], w[0] + t) + (w[0] + t,) * (s - t)))
    out, seen = [], set()
    for lhs, rhs in rules:
        if lhs and rhs and lhs != rhs and len(lhs) <= L and len(rhs) <= L and (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            out.append((lhs, rhs))
    return out


def limits_lines(system: str, n: int | None, reading: str, alphabet: int, max_len: int) -> list[str]:
    """``limits --machine`` from the brute-force congruence oracle."""
    from oracles import brute_congruence_count

    here, classes = brute_congruence_count(instances(system, n, alphabet, max_len), alphabet, max_len)
    nxt, _ = brute_congruence_count(instances(system, n, alphabet, max_len + 1), alphabet, max_len + 1)
    reps = sorted(min(ws, key=lambda w: (len(w), w)) for ws in classes.values())
    reps.sort(key=lambda w: (len(w), w))
    out = [f"system={system}", "target=" + ("w" if n is None else str(n))]
    if system == "lms" and n is None:
        out.append(f"reading={reading}")
    out += [
        f"L={max_len}",
        f"classes={here}",
        f"classes_next={nxt}",
        f"stable={str(here == nxt).lower()}",
        "representatives=" + ";".join(".".join(map(str, w)) for w in reps[:20]),
    ]
    return out
