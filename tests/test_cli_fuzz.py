"""Fuzz the CLI with small random input files.

Every verb runs on random text written as each kind of input file (edge
list, set-system JSON, pointer-structure JSON, formula, order, coloring,
sample, edge colors) with small numeric flags.  Every run must end with
exit code 0, 2, 3 or 4 and print no traceback.  Sizes stay small enough
that no run reaches an exponential search or a large allocation.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsedisc.cli import GEN_FAMILIES, main

index = st.integers(0, 6)
JUNK_LINES = ["# c", "", "1", "1 2 3", "a b", "n 3", "0 0", "0 9", "-1 2", "2 -1"]


def junk(alphabet):
    return st.text(alphabet, max_size=20)


def mostly(valid, *malformed):
    """The valid strategy in three draws of four, else a malformed one."""
    return st.sampled_from([valid] * 3 + [st.one_of(*malformed)]).flatmap(lambda s: s)


@st.composite
def mostly_valid_lines(draw, lines, head=()):
    """Lines of a well-formed file, sometimes with a junk line after the head."""
    extra = draw(mostly(st.just([]), st.lists(st.sampled_from(JUNK_LINES), max_size=2)))
    at = draw(st.integers(0, len(lines)))
    return "\n".join([*head, *lines[:at], *extra, *lines[at:]])


@st.composite
def edge_list(draw):
    n = draw(index)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12))
    edges = [f"{u} {v}" for u, v in pairs if u != v and max(u, v) < n]
    return draw(mostly_valid_lines(edges, head=[f"n {n}"]))


@st.composite
def system_json(draw):
    n = draw(index)
    sets = draw(st.lists(st.lists(st.integers(0, max(n - 1, 0)), max_size=5), max_size=9))
    return json.dumps({"ground_size": n, "sets": sets})


@st.composite
def structure_json(draw):
    n = draw(st.integers(0, 3))
    total = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    subset = st.lists(st.integers(0, max(n - 1, 0)), max_size=n)
    return json.dumps({
        "n": n,
        "functions": draw(st.dictionaries(st.sampled_from(["f", "g"]), total, max_size=2)),
        "predicates": draw(st.dictionaries(st.sampled_from(["A", "B"]), subset, max_size=2)),
    })


@st.composite
def permutation_text(draw):
    return " ".join(map(str, draw(st.permutations(range(draw(st.integers(0, 7)))))))


@st.composite
def coloring_text(draw):
    values = draw(st.lists(st.sampled_from([1, -1]), max_size=7))
    return draw(mostly_valid_lines([f"{i} {v}" for i, v in enumerate(values)]))


@st.composite
def colors_text(draw):
    # every pair of 0..6, so a graph read from any edge list is covered
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    lines = [f"{u} {v} {draw(st.sampled_from([1, 2]))}" for u, v in pairs]
    return draw(mostly_valid_lines(lines))


json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["ground_size", "sets", "n", "functions", "predicates", "f", "A"]),
        inner,
        max_size=3,
    ),
    max_leaves=8,
).map(json.dumps)

int_list = st.lists(st.integers(-1, 7), max_size=8).map(lambda xs: " ".join(map(str, xs)))

# variable indices stay in 1..2, so no formula asks for a large tuple space
formula = st.one_of(
    st.sampled_from(["f(x1)=y1", "A(x1) & f(x1)=f(y1)", "x1=y1", "!B(x1) | f(f(x1))=y2"]),
    st.lists(
        st.sampled_from(
            ["x1", "x2", "y1", "y2", "z1", "x0", "f(", "g(", "A(", "B(", "(", ")",
             "=", "&", "|", "!", " ", "exists", "@"]
        ),
        max_size=12,
    ).map("".join),
)

FILES = {
    "edges": mostly(edge_list(), junk("0123456789 -#\n")),  # no "n": no big header
    "system": mostly(system_json(), json_value, junk('{}[]",:0123 a')),
    "structure": mostly(structure_json(), json_value),
    "formula": formula,
    "order": mostly(permutation_text(), int_list, junk("0123456789 -x\n")),
    "coloring": mostly(coloring_text(), junk("0123456789 -#\n")),
    "sample": mostly(int_list, junk("0123456789 -x")),
    "colors": mostly(colors_text(), junk("0123456789 -#\n")),
}


@st.composite
def invocation(draw):
    """An argv list whose file arguments are {kind} placeholders; the input
    file is mostly of the kind the verb reads."""
    flag = lambda name, values: (
        [name, str(draw(st.sampled_from(values)))] if draw(st.booleans()) else []
    )
    file_flag = lambda name, kind: [name, "{%s}" % kind] if draw(st.booleans()) else []
    inp = lambda natural: [
        "-i", "{%s}" % draw(st.sampled_from([natural] * 6 + ["edges", "system", "structure", "missing"]))
    ]
    system = flag("--system", ["json", "neighborhood", "power"])
    graph_in = "system" if system[1:] in ([], ["json"]) else "edges"
    d = flag("--d", [-1, 0, 1, 2, 3])
    verb = draw(st.sampled_from(["gen", "order", "system", "color", "disc", "approx"]))
    if verb == "gen":
        family = draw(st.sampled_from(GEN_FAMILIES))
        params = [str(p) for p in draw(st.lists(st.integers(-1, 6), max_size=3))]
        return ["gen", family, *params, *flag("--seed", [0, 1, 2])]
    if verb == "order":
        return ["order", *inp("edges"), *d, *flag("--exact-d", [0, 1, 2]),
                *file_flag("-o", "out")]
    if verb == "system":
        kind = draw(st.sampled_from(["neighborhood", "power", "edge-color", "defined"]))
        return ["system", kind, *inp("structure" if kind == "defined" else "edges"), *d,
                *file_flag("--colors", "colors"), *file_flag("--formula", "formula")]
    if verb == "color":
        kind = draw(st.sampled_from(["beck-fiala", "power", "qf"]))
        natural = {"beck-fiala": graph_in, "power": "edges", "qf": "structure"}[kind]
        formulas = ["--formula", "{formula}"] * draw(st.integers(0, 2))
        return ["color", kind, *inp(natural), *system, *d, *file_flag("--order", "order"),
                *formulas, *file_flag("-o", "out")]
    if verb == "disc":
        kind = draw(st.sampled_from(["eval", "exact", "herdisc", "spectral"]))
        return ["disc", kind, *inp(graph_in), *system, *d,
                *file_flag("--coloring", "coloring"), *flag("--budget", [0, 1, 16, 64]),
                *flag("--cap-exact-n", [-1, 4, 24]), *file_flag("-o", "out")]
    kind = draw(st.sampled_from(["build", "verify"]))
    eps = draw(st.sampled_from(["1/4", "1/2", "1/3", "1", "0", "2", "1/0", "abc", "1e-3"]))
    return ["approx", kind, *inp(graph_in), *system, *d, "--eps", eps,
            *file_flag("--sample", "sample")]


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=invocation(), contents=st.fixed_dictionaries(FILES))
def test_every_run_exits_cleanly(argv, contents):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: str(Path(tmp, kind)) for kind in [*FILES, "out", "missing"]}
        for kind, text in contents.items():
            Path(paths[kind]).write_text(text)
        args = [a.format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 2, 3, 4), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
