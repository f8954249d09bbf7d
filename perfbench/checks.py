"""Report checkers that judge CLI output against the planted inputs.

Each checker takes the exit code and report text of one request plus
the plain data the input was generated from, and returns a list of
problems (empty when the report is right).  None of them calls
``sparsehg``: they re-derive every property from the report itself.
"""

from __future__ import annotations

import re

from inputs import Graph, Hyper, elabel, vlabel


def _lines(text: str) -> list:
    return text.splitlines()


def _vertex_ids(n: int) -> dict:
    return {vlabel(v): v for v in range(n)}


def _edge_ids(m: int) -> dict:
    return {elabel(e): e for e in range(m)}


def _expect_code(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _edges_inside(h: Hyper, xs) -> int:
    inside = set(xs)
    return sum(1 for members in h.edges if inside.issuperset(members))


def check_sparsity(code: int, text: str, h: Hyper) -> list:
    """Planted sparse: the flow method says ok.  Planted non-sparse:
    ERROR NotKSparse with a witness X spanning more than k*|X| edges."""
    lines = _lines(text)
    if not h.witness_set:
        want = [f"ok {h.k}-sparse method=flow"]
        return _expect_code(code, 0) + ([] if lines == want else [f"report {lines[:2]}"])
    problems = _expect_code(code, 1)
    if len(lines) != 2 or lines[0] != "ERROR NotKSparse" or not lines[1].startswith("witness "):
        return problems + [f"not a NotKSparse report: {lines[:2]}"]
    ids = _vertex_ids(h.n)
    labels = lines[1].split()[1:]
    if not labels or any(label not in ids for label in labels) or len(set(labels)) != len(labels):
        return problems + ["witness is not a set of vertices"]
    xs = [ids[label] for label in labels]
    spanned = _edges_inside(h, xs)
    if spanned <= h.k * len(xs):
        problems.append(f"witness spans {spanned} <= {h.k}*{len(xs)} edges")
    return problems


def _orientation(text: str, h: Hyper):
    """Edge id -> head vertex id, or a problem string."""
    vids, eids = _vertex_ids(h.n), _edge_ids(len(h.edges))
    heads = {}
    for line in _lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->" or parts[0] not in eids or parts[2] not in vids:
            return f"bad orientation line {line!r}"
        e = eids[parts[0]]
        if e in heads:
            return f"edge {parts[0]} oriented twice"
        heads[e] = vids[parts[2]]
    if len(heads) != len(h.edges):
        return f"{len(h.edges) - len(heads)} edges not oriented"
    for e, v in heads.items():
        if v not in h.edges[e]:
            return f"{elabel(e)} -> {vlabel(v)} leaves the edge"
    return heads


def _preimage_excess(h: Hyper, heads: dict, bound: int) -> list:
    counts = [0] * h.n
    for v in heads.values():
        counts[v] += 1
    worst = max(counts, default=0)
    return [] if worst <= bound else [f"preimage {worst} > {bound}"]


def check_bounded(code: int, text: str, h: Hyper) -> list:
    """Every edge goes to one of its members; preimages are at most k."""
    heads = _orientation(text, h)
    if isinstance(heads, str):
        return _expect_code(code, 0) + [heads]
    return _expect_code(code, 0) + _preimage_excess(h, heads, h.k)


def check_antisym(code: int, text: str, h: Hyper) -> list:
    """Preimages at most rank*k^2, and the quotient has no opposite arcs."""
    heads = _orientation(text, h)
    if isinstance(heads, str):
        return _expect_code(code, 0) + [heads]
    problems = _expect_code(code, 0) + _preimage_excess(h, heads, h.rank() * h.k * h.k)
    arcs = {(a, b) for e, b in heads.items() for a in h.edges[e] if a != b}
    opposite = next(((a, b) for a, b in arcs if (b, a) in arcs), None)
    if opposite:
        problems.append(f"opposite arcs between {vlabel(opposite[0])} and {vlabel(opposite[1])}")
    return problems


def check_dfst(code: int, text: str, h: Hyper, root: int = 0) -> list:
    """A-sets partition V; parents form a tree at the root; each non-root
    node lies on its attach edge."""
    problems = _expect_code(code, 0)
    vids, eids = _vertex_ids(h.n), _edge_ids(len(h.edges))
    parent, owner = {}, {}
    for line in _lines(text):
        parts = line.split()
        fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        if len(parts) != 5 or parts[0] not in vids or set(fields) != {"parent", "type", "F", "A"}:
            return problems + [f"bad tree line {line!r}"]
        node = vids[parts[0]]
        if node in parent:
            return problems + [f"node {parts[0]} listed twice"]
        parent[node] = None if fields["parent"] == "-" else vids.get(fields["parent"], -1)
        aux = [] if fields["A"] == "-" else fields["A"].split(",")
        for label in aux:
            if label not in vids or vids[label] in owner:
                return problems + [f"A-sets do not partition V at {label}"]
            owner[vids[label]] = node
        if node == root:
            continue
        attach = fields["F"].split(",")
        if len(attach) != 1 or attach[0] not in eids or node not in h.edges[eids[attach[0]]]:
            problems.append(f"{parts[0]} is not on its attach edge {fields['F']}")
    if len(owner) != h.n:
        problems.append(f"A-sets cover {len(owner)} of {h.n} vertices")
    if parent.get(root, -1) is not None:
        problems.append("root missing or has a parent")
    for node in parent:
        seen = set()
        while node is not None and node not in seen:
            seen.add(node)
            node = parent.get(node, -1)
            if node == -1:
                return problems + ["a parent is not a tree node"]
        if node is not None:
            return problems + ["parents form a cycle"]
    return problems


def check_order_edges(code: int, text: str, h: Hyper) -> list:
    """Each line orders exactly the members of its edge."""
    problems = _expect_code(code, 0)
    vids, eids = _vertex_ids(h.n), _edge_ids(len(h.edges))
    seen = set()
    for line in _lines(text):
        parts = line.split()
        if not parts or parts[0] not in eids or parts[0] in seen:
            return problems + [f"bad order line {line!r}"]
        seen.add(parts[0])
        members = [vids.get(label, -1) for label in parts[1:]]
        if len(members) != len(set(members)) or set(members) != set(h.edges[eids[parts[0]]]):
            problems.append(f"line for {parts[0]} is not a permutation of its edge")
    if len(seen) != len(h.edges):
        problems.append(f"{len(h.edges) - len(seen)} edges not ordered")
    return problems


def check_priority(code: int, text: str, h: Hyper, targets) -> list:
    """The P classes cover every target edge, and L is a subset of the
    targets."""
    problems = _expect_code(code, 0)
    vids = _vertex_ids(h.n)
    covered, leaves = set(), None
    for line in _lines(text):
        parts = line.split()
        if parts and parts[0].startswith("P") and parts[0][1:].isdigit():
            covered.update(vids.get(label, -1) for label in parts[1:])
        elif parts and parts[0] == "L" and len(parts) == 2:
            leaves = parts[1].split(",")
        elif not (len(parts) == 4 and parts[0] == "glued" and parts[2] == "class"):
            return problems + [f"bad priority line {line!r}"]
    for e in targets:
        if not covered.issuperset(h.edges[e]):
            problems.append(f"target {elabel(e)} not covered")
    wanted = {elabel(e) for e in targets}
    if leaves is None or not set(leaves) <= wanted:
        problems.append(f"L {leaves} is not inside the targets")
    return problems


def _flow_values(text: str, g: Graph):
    """(u, v) -> value for u < v, or a problem string."""
    vids = _vertex_ids(g.n)
    edge_set = set(g.edges)
    values = {}
    for line in _lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] not in vids or parts[1] not in vids:
            return f"bad flow line {line!r}"
        u, v = vids[parts[0]], vids[parts[1]]
        key, sign = ((u, v), 1) if u < v else ((v, u), -1)
        if key not in edge_set or key in values:
            return f"flow line {line!r} is not a fresh edge"
        values[key] = sign * int(parts[2])
    return values


def check_flow_delta(code: int, text: str, g: Graph) -> list:
    """Defect delta-1 (or 0 where delta is 0) everywhere; |f| <= k."""
    values = _flow_values(text, g)
    if isinstance(values, str):
        return _expect_code(code, 0) + [values]
    problems = _expect_code(code, 0)
    defect = [0] * g.n
    for (u, v), val in values.items():
        defect[u] += val
        defect[v] -= val
        if abs(val) > g.k:
            problems.append(f"|f({vlabel(u)},{vlabel(v)})| = {abs(val)} > {g.k}")
            break
    for v, d in enumerate(g.demand):
        if not (defect[v] == d - 1 or d == defect[v] == 0):
            problems.append(f"defect {defect[v]} at {vlabel(v)} with demand {d}")
            break
    return problems


def check_flow_paths(code: int, text: str, g: Graph) -> list:
    """Path starts realize delta, ends are distinct, steps are edges."""
    problems = _expect_code(code, 0)
    vids = _vertex_ids(g.n)
    edge_set = set(g.edges)
    starts = [0] * g.n
    ends = set()
    for line in _lines(text):
        parts = line.split()
        if len(parts) < 2 or parts[0] != "path" or any(p not in vids for p in parts[1:]):
            return problems + [f"bad path line {line!r}"]
        path = [vids[p] for p in parts[1:]]
        starts[path[0]] += 1
        if path[-1] in ends:
            problems.append(f"two paths end at {parts[-1]}")
        ends.add(path[-1])
        if any((min(a, b), max(a, b)) not in edge_set for a, b in zip(path, path[1:])):
            problems.append(f"path {parts[1]}.. steps off the graph")
    if starts != list(g.demand):
        problems.append("path starts do not realize delta")
    return problems


def _set_map(lines, vids):
    table = {}
    for line in lines:
        left, arrow, right = line.partition("->")
        members = [m.strip() for m in left.split(",") if m.strip()]
        if not arrow or right.strip() not in vids or any(m not in vids for m in members):
            return None
        table[frozenset(vids[m] for m in members)] = vids[right.strip()]
    return table


def check_refine(code: int, text: str, g: Graph) -> list:
    """h0 is injective on h's domain and gmap after h0 equals h."""
    problems = _expect_code(code, 0)
    vids = _vertex_ids(g.n)
    lines = _lines(text)
    if "# h0" not in lines or "# gmap" not in lines:
        return problems + ["missing # h0 or # gmap section"]
    cut = lines.index("# gmap")
    h0 = _set_map(lines[lines.index("# h0") + 1:cut], vids)
    gmap = {}
    for line in lines[cut + 1:]:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->" or parts[0] not in vids or parts[2] not in vids:
            return problems + [f"bad gmap line {line!r}"]
        gmap[vids[parts[0]]] = vids[parts[2]]
    h = dict(g.sets)
    if h0 is None or set(h0) != set(h):
        return problems + ["h0 does not have h's domain"]
    if len(set(h0.values())) != len(h0):
        problems.append("h0 is not injective")
    if any(gmap.get(h0[xs]) != v for xs, v in h.items()):
        problems.append("gmap after h0 differs from h")
    return problems


# Case lines of two known program defects.  They are counted and
# reported on their own; any other case line not ending in " ok" is a
# failed operation.
KNOWN_DEFECTS = {
    # priority trees on inputs of rank >= 3 break an order law (ROADMAP
    # item 3, acceptance criterion 7)
    "priority_tree": re.compile(
        r"case priority-tree .* FAIL (antisymmetry fails|downset of .* not a chain"
        r"|transitivity fails|not reflexive|no infimum|linear order not total)"
    ),
    # antisymmetric_orientation's own rank*k^2 bound assertion fails on
    # some rank-4 inputs at k=1 (about one case line in 10^4)
    "antisym_bound": re.compile(r"case orientations .* FAIL assert ?$"),
}


def check_suite(code: int, text: str, cases: int):
    """The summary counts match the case lines, and there are ``cases``
    of them.  Returns (problems, case lines not ending in ok other than
    known defects, {known defect: case lines})."""
    problems = _expect_code(code, 0)
    lines = _lines(text)
    body = [line for line in lines[1:-1] if line.startswith("case ")]
    failing = [line for line in body if not line.endswith(" ok")]
    known = {
        name: sum(1 for line in failing if pattern.match(line))
        for name, pattern in KNOWN_DEFECTS.items()
    }
    summary = f"summary cases={len(body)} failures={len(failing)}"
    if not lines or not lines[0].startswith("suite ") or len(body) != len(lines) - 2:
        problems.append("report is not a header, case lines and a summary")
    elif lines[-1] != summary:
        problems.append(f"{lines[-1]!r} does not match the case lines ({summary})")
    if len(body) != cases:
        problems.append(f"{len(body)} case lines, expected {cases}")
    return problems, len(failing) - sum(known.values()), known
