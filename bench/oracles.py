"""Reference results for the benchmark, written without semicat's code.

Scalars are raw payloads, as in the README grammar: ``int`` for nat,
``bool`` for bool, ``int`` or ``None`` (infinity) for tropical,
``Fraction`` for ratnn and a ``(Fraction, Fraction)`` pair for gaussian.
Every check returns ``None`` when the output is right, and otherwise a
one-line reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

_NAT = re.compile(r"[0-9]+\Z")
_INT = re.compile(r"-?[0-9]+\Z")
_RAT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


# ---------------------------------------------------------------------------
# Semiring operations on payloads


def _trop_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _trop_mul(a, b):
    if a is None or b is None:
        return None
    return a + b


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


# name -> (add, mul, zero, star)
OPS = {
    "nat": (lambda a, b: a + b, lambda a, b: a * b, 0, lambda a: a),
    "bool": (lambda a, b: a or b, lambda a, b: a and b, False, lambda a: a),
    "tropical": (_trop_add, _trop_mul, None, lambda a: a),
    "ratnn": (lambda a, b: a + b, lambda a, b: a * b, Fraction(0), lambda a: a),
    "gaussian": (
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        _gauss_mul,
        (Fraction(0), Fraction(0)),
        lambda a: (a[0], -a[1]),
    ),
}


# ---------------------------------------------------------------------------
# Scalar text


def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_scalar(name: str, v) -> str:
    if name == "nat":
        return str(v)
    if name == "bool":
        return "1" if v else "0"
    if name == "tropical":
        return "inf" if v is None else str(v)
    if name == "ratnn":
        return _render_fraction(v)
    re_part, im_part = v
    if im_part == 0:
        return _render_fraction(re_part)
    im_text = {1: "i", -1: "-i"}.get(im_part, f"{_render_fraction(im_part)}i")
    if re_part == 0:
        return im_text
    return f"{_render_fraction(re_part)}{'+' if im_part > 0 else ''}{im_text}"


def _parse_fraction(text: str) -> Fraction:
    m = _RAT.match(text)
    if not m or (m.group(2) is not None and int(m.group(2)) == 0):
        raise ValueError(f"bad rational {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def parse_scalar(name: str, text: str):
    if name == "nat" and _NAT.match(text):
        return int(text)
    if name == "bool" and text in ("0", "1"):
        return text == "1"
    if name == "tropical":
        if text == "inf":
            return None
        if _INT.match(text):
            return int(text)
    if name == "ratnn":
        q = _parse_fraction(text)
        if q >= 0:
            return q
    if name == "gaussian":
        if not text.endswith("i"):
            return (_parse_fraction(text), Fraction(0))
        body = text[:-1]
        cut = max(body.rfind("+", 1), body.rfind("-", 1))
        re_text, im_text = (body[:cut], body[cut:]) if cut > 0 else ("", body)
        im_text = im_text.lstrip("+")
        im_part = {"": Fraction(1), "-": Fraction(-1)}.get(im_text)
        if im_part is None:
            im_part = _parse_fraction(im_text)
        return (_parse_fraction(re_text) if re_text else Fraction(0), im_part)
    raise ValueError(f"bad {name} literal {text!r}")


# ---------------------------------------------------------------------------
# .mat files and matrix operations (a matrix is a list of rows)


def render_mat(name: str, rows: list) -> str:
    cols = len(rows[0]) if rows else 0
    lines = [f"semiring {name} {len(rows)} {cols}"]
    lines += [" ".join(render_scalar(name, v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_mat(text: str) -> tuple[str, list]:
    lines = text.split("\n")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "semiring" or head[1] not in OPS:
        raise ValueError(f"bad header {lines[0]!r}")
    name, n, m = head[1], int(head[2]), int(head[3])
    if len(lines) != n + 2 or lines[-1] != "":
        raise ValueError(f"expected {n} rows and a final newline")
    rows = []
    for line in lines[1 : n + 1]:
        fields = line.split(" ")
        if len(fields) != m:
            raise ValueError(f"expected {m} entries in row {line!r}")
        rows.append([parse_scalar(name, f) for f in fields])
    return name, rows


def compose(name: str, a: list, b: list) -> list:
    """Triple loop: entry (i, k) is the sum over j of a(i, j) * b(j, k)."""
    add, mul, zero, _ = OPS[name]
    out = []
    for row in a:
        out_row = []
        for k in range(len(b[0])):
            acc = zero
            for j, x in enumerate(row):
                acc = add(acc, mul(x, b[j][k]))
            out_row.append(acc)
        out.append(out_row)
    return out


def tensor(name: str, a: list, b: list) -> list:
    """Entry ((i0, i1), (j0, j1)) is a(i0, j0) * b(i1, j1), with pairs
    flattened as first * size + second."""
    mul = OPS[name][1]
    return [[mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def dagger(name: str, a: list) -> list:
    """Conjugate transpose."""
    star = OPS[name][3]
    return [[star(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def check_matmul(op: str, name: str, a: list, b: list | None, rc, out: str):
    if rc != 0:
        return f"exit code {rc}"
    try:
        got_name, got = parse_mat(out)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if render_mat(got_name, got) != out:
        return "output is not in canonical form"
    if op == "compose":
        want = compose(name, a, b)
    elif op == "tensor":
        want = tensor(name, a, b)
    else:
        want = dagger(name, a)
    if got_name != name or got != want:
        return f"{op} result differs from the reference"
    return None


# ---------------------------------------------------------------------------
# Shortest paths


def bounded_distances(n: int, edges: list, hops: int) -> list:
    """Hop-bounded Bellman-Ford: after round k, entry (i, j) is the least
    weight of a path from i to j with at most k edges."""
    dist = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(hops):
        new = [row[:] for row in dist]
        for u, v, w in edges:
            for i in range(n):
                if dist[i][u] is not None:
                    cand = dist[i][u] + w
                    if new[i][v] is None or cand < new[i][v]:
                        new[i][v] = cand
        if new == dist:
            break
        dist = new
    return dist


def render_distances(dist: list) -> str:
    return "\n".join(" ".join(render_scalar("tropical", v) for v in row) for row in dist) + "\n"


def check_paths(n: int, edges: list, hops: int, rc, out: str):
    if rc != 0:
        return f"exit code {rc}"
    if out != render_distances(bounded_distances(n, edges, hops)):
        return "distance table differs from the reference"
    return None


# ---------------------------------------------------------------------------
# Law reports


def check_report(rc, out: str):
    if rc != 0:
        return f"exit code {rc}"
    lines = out.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        return "report is empty or lacks its final newline"
    for k, line in enumerate(lines[:-1]):
        if not (line.startswith("PASS ") or (k > 0 and line.startswith("  "))):
            return f"report line {line!r} is neither PASS nor an indented detail"
    return None
