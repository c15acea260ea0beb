"""The goldens on every interpreter the package supports.

``pyproject.toml`` claims Python >= 3.10, and the exact-rational kernels
lean on ``Fraction`` reducing to lowest terms, which ``fractions`` has
reimplemented between versions. They also build most rationals with
``algebra._ratio``, which sets ``Fraction``'s two private slots directly
and so relies on their layout. Each test here runs every law/roundtrip
golden and the fifteen CLI fixtures through ``semicat.cli.main``, all in
one subprocess of another interpreter found on PATH, and compares each
stdout with the recorded bytes. The same subprocess builds every (n, d) of
``RATIOS`` with ``_ratio`` and with ``Fraction`` and reports each pair that
differs in type, value, hash, integer ratio, text or arithmetic. It also
computes the count and digest of the drawn law cases
(``test_adjunctions.drawn_case_digest``, from its source): the samplers
rely on ``Random.sample`` drawing the same positions from a ``range`` as
from a list of the same length. And it reads the byte inputs of
``READER_INPUTS`` through ``cli._input_lines`` at each of ``READ_HINTS``,
since the reader leaves line splitting and decoding to the interpreter's
text reader (``io.TextIOWrapper``). The subprocess needs only the standard
library. An interpreter that is not on PATH, or does not run, is skipped.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_adjunctions import DRAWN_CASES, drawn_case_digest
from test_cli import FIXTURES, LAW_GOLDEN_RUNS, LAW_GOLDENS

SRC = Path(__file__).resolve().parents[1] / "src"


def _fx(name: str) -> str:
    return str(FIXTURES / name)


# name -> (argv, the file holding its stdout)
CASES = {name: (argv, LAW_GOLDENS / f"{name}.out") for name, argv in LAW_GOLDEN_RUNS.items()}
CASES.update(
    {
        "compose_ab": (
            ["matmul", "--op", "compose", "-A", _fx("compose_a.mat"), "-B", _fx("compose_b.mat")],
            FIXTURES / "compose_ab.out",
        ),
        **{
            f"{pair}_ab": (
                ["matmul", "--op", "compose", "-A", _fx(f"{pair}_a.mat"), "-B", _fx(f"{pair}_b.mat")],
                FIXTURES / f"{pair}_ab.out",
            )
            for pair in (
                "compose_wide", "compose_gauss", "compose_trop", "compose_ratnn", "compose_bool"
            )
        },
        "tensor_gauss_ab": (
            ["matmul", "--op", "tensor", "-A", _fx("tensor_gauss_a.mat"), "-B", _fx("tensor_gauss_b.mat")],
            FIXTURES / "tensor_gauss_ab.out",
        ),
        "dagger": (["matmul", "--op", "dagger", "-A", _fx("dagger_in.mat")], FIXTURES / "dagger.out"),
        "dagger_gauss": (
            ["matmul", "--op", "dagger", "-A", _fx("dagger_gauss_in.mat")],
            FIXTURES / "dagger_gauss.out",
        ),
        "cycle3_k2": (
            ["shortest-path", "--graph", _fx("cycle3.graph"), "--max-hops", "2"],
            FIXTURES / "cycle3_k2.out",
        ),
        **{
            f"{graph}_k3": (
                ["shortest-path", "--graph", _fx(f"{graph}.graph"), "--max-hops", "3"],
                FIXTURES / f"{graph}_k3.out",
            )
            for graph in ("line4", "sparse12", "negcycle7")
        },
        **{
            f"dense18_k{hops}": (
                ["shortest-path", "--graph", _fx("dense18.graph"), "--max-hops", str(hops)],
                FIXTURES / f"dense18_k{hops}.out",
            )
            for hops in (17, 9)
        },
    }
)

# Numerators and positive denominators: signs, zero, one, common factors,
# and values on both sides of 2**64.
RATIOS = [
    [n, d]
    for n in (-(2**70) - 1, -(3**41), -12, -1, 0, 1, 6, 2**64, 2**64 * 3**5, 5**60)
    for d in (1, 2, 6, 9, 2**64, 3**41, 2 * 5**60)
]

# Byte inputs for ``cli._input_lines``: CRLFs that batches of every hint in
# READ_HINTS end at or cut; a lone CR; the separators that only
# ``str.splitlines`` knows; a CRLF and a two-byte character across the text
# reader's 8192-byte chunks; truncated multibyte sequences, mid-line and at
# the end; a bad byte after a two-byte character, one after CRLF lines, and
# one past the first chunk.
READER_INPUTS = [
    b"3\r\n0 1 5\r\n\r\n1 2 7\r\n",
    b"a\rb\r\rc\r",
    "a\x0bb\u0085c\u2028d\r\ne\x0c".encode(),
    b"x" * 8191 + b"\r\ny\r\n",
    b"x" * 8191 + "\u00e9\r\n".encode(),
    b"ab\r\n\xe2\x82cd\r\n",
    "ab\r\n\u00e9".encode() + b"\xff\r\n",
    b"ab\r\ncd\xe2\x82",
    b"3\r\n0 1 5\r\n\xff\r\n",
    b"y\r\n" + "\u2028".encode() * 3000 + b"\r\n\x80",
]
READ_HINTS = range(1, 10)


def read_every_input(inputs: list, hints) -> list:
    """[lines, error] of ``cli._input_lines`` over each of ``inputs`` (the
    hex of a file's bytes) at each ``_READ_HINT`` of ``hints``: the lines
    it yields, and then the text of the ``FormatError`` it raises, with the
    file's path cut, or None."""
    import os
    import tempfile

    from semicat import cli
    from semicat.errors import FormatError

    out, real = [], cli._READ_HINT
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        try:
            for data in inputs:
                with open(path, "wb") as f:
                    f.write(bytes.fromhex(data))
                for hint in hints:
                    cli._READ_HINT = hint
                    lines, error = [], None
                    try:
                        for line in cli._input_lines(path):
                            lines.append(line)
                    except FormatError as exc:
                        error = str(exc).replace(path, "<input>")
                    out.append([lines, error])
        finally:
            cli._READ_HINT = real
    return out


def expected_read(data: bytes) -> list:
    """[lines, error] that ``_input_lines`` owes ``data``: the ``splitlines``
    of its text, or, at its first byte that is not UTF-8, the lines before
    that byte's own and the error that names the byte and its offset."""
    try:
        return [data.decode("utf-8").splitlines(), None]
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        good = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        error = f"<input>: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        return [head[:good].decode("utf-8").splitlines(), error]


EXPECTED_READS = [expected_read(data) for data in READER_INPUTS for _ in READ_HINTS]

# Reads {"cases": {name: argv}, "ratios": [[n, d], ...], "reader": [hex, ...],
# "hints": [hint, ...]} as JSON on stdin and writes {"cases": {name: [exit
# code, stdout]}, "mismatches": [[n, d], ...], "drawn_cases": [count,
# digest], "reads": [[lines, error], ...]}.
RUNNER = inspect.getsource(drawn_case_digest) + inspect.getsource(read_every_input) + """
import io, json, sys
from contextlib import redirect_stdout
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from semicat.algebra import _ratio
from semicat.cli import main

def observed(q):
    return (type(q), q == Fraction(3, 7), hash(q), q.as_integer_ratio(),
            str(q), repr(q), q + 1, q * q, -q, q < 1)

job = json.load(sys.stdin)
results = {}
for name, argv in job["cases"].items():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    results[name] = [code, out.getvalue()]
mismatches = [
    [n, d] for n, d in job["ratios"]
    if _ratio(n, d) != Fraction(n, d) or observed(_ratio(n, d)) != observed(Fraction(n, d))
]
reads = read_every_input(job["reader"], job["hints"])
json.dump(
    {"cases": results, "mismatches": mismatches, "drawn_cases": drawn_case_digest(),
     "reads": reads},
    sys.stdout,
)
"""


def find_interpreter(version: str):
    """The first ``python<version>`` on PATH that runs and reports that
    version, with the environment to run it in, or None. The environment
    names the version in ``PYENV_VERSION``, so that a pyenv shim selects it;
    any other executable ignores that variable."""
    env = {**os.environ, "PYENV_VERSION": version}
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        exe = Path(directory, f"python{version}")
        if not (exe.is_file() and os.access(exe, os.X_OK)):
            continue
        try:
            run = subprocess.run(
                [str(exe), "-I", "-c", probe], env=env, capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if run.returncode == 0 and run.stdout.strip() == version:
            return str(exe), env
    return None


def test_cases_cover_every_golden_and_cli_fixture():
    assert len(CASES) == 33 + 15
    assert {golden.name for _, golden in CASES.values()} >= {
        p.name for p in FIXTURES.glob("*.out")
    }


def test_the_reader_reads_every_input_as_its_decoded_text():
    reads = read_every_input([data.hex() for data in READER_INPUTS], READ_HINTS)
    assert reads == EXPECTED_READS
    assert sum(error is not None for _, error in reads) == 5 * len(READ_HINTS)


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_goldens_are_byte_identical_under(version):
    if version == "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"the rest of the suite runs on Python {version}")
    found = find_interpreter(version)
    if found is None:
        pytest.skip(f"no working python{version} on PATH")
    exe, env = found
    run = subprocess.run(
        [exe, "-I", "-B", "-c", RUNNER, str(SRC)],
        input=json.dumps(
            {
                "cases": {name: argv for name, (argv, _) in CASES.items()},
                "ratios": RATIOS,
                "reader": [data.hex() for data in READER_INPUTS],
                "hints": list(READ_HINTS),
            }
        ),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert results["mismatches"] == []
    assert tuple(results["drawn_cases"]) == DRAWN_CASES
    assert results["reads"] == EXPECTED_READS
    for name, (_, golden) in CASES.items():
        code, out = results["cases"][name]
        assert code == 0, name
        assert out.encode() == golden.read_bytes(), name
