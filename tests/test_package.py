"""The package surface: its public names, and the value semantics of its
records (repr, equality, hashing, immutability, pickling and copying)."""

import argparse
import contextlib
import copy
import inspect
import io
import json
import os
import pickle
import subprocess
import sys
import types
from functools import partial
from pathlib import Path

import pytest

import unigraph
from unigraph import (
    Base,
    DegreeSequence,
    GenSpec,
    Graph,
    PairedDegreeSequence,
    ParamSet,
    SplitClass,
    SplitKind,
    TypedComponent,
    Variant,
    VertexPartition,
    decompose,
    determine_split,
    is_unigraph,
    parse_sequence,
    realize,
)
from unigraph._record import Record
from unigraph.cli import build_parser, main
from unigraph.errors import FormatError, UnigraphError

SRC = str(Path(unigraph.__file__).resolve().parents[1])


class Permutation(Record):
    """A vertex bijection as its tuple of images: a one-field record, for
    the value semantics below."""

    _fields = ("mapping",)

    def __init__(self, mapping: tuple[int, ...]) -> None:
        object.__setattr__(self, "mapping", mapping)


# unigraph.__all__, grouped by why each name is public; exporting or
# dropping a name shows up here
PUBLIC = [
    # library and CLI: the calls a library path or CLI subcommand makes,
    # their records and the errors they raise
    "FormatError", "Infeasible", "InvalidPartition", "NegativeDegree",
    "NotGraphical", "NotUnigraph", "ParamOutOfRange", "TooLarge",
    "UnigraphError", "VariantUndefined",
    "DegreeSequence", "PairedDegreeSequence", "is_graphical", "normalize",
    "parse_paired", "parse_sequence", "realize",
    "Decomposition", "compact", "compose_all", "decompose",
    "GenSpec", "compose_types", "generate",
    "Graph",
    "ParamSet", "compact_typed", "core_params", "unigraph_params",
    "SplitClass", "SplitKind", "determine_split",
    "Base", "TypedComponent", "UnigraphReport", "Variant", "is_unigraph",
    # read by perfbench (tests/test_benchmark_contract.py pins them)
    "KERNEL_IMPL", "compose_seq", "match_nonsplit_type", "match_split_type",
    "type_to_sequence",
    # paper operations: the sequence algebra, the per-component parameters
    # and the graph-level operations the tests use as its reference
    "complement_paired", "complement_seq", "inverse_paired",
    "component_dist", "component_fix", "component_omega_alpha",
    "VertexPartition", "complement_graph", "compose_graphs",
    "degree_sequence_of", "inverse_graph",
]

# each public callable accepts these or raises a UnigraphError
HOSTILE_VALUES = [None, "x", 1.5, [], [[1]], object(), -1, (("a", 1),)]
# the enums raise ValueError on an unknown value, by the enum contract
ENUMS = {"Base", "Variant", "SplitKind"}
# CLI texts that no subcommand accepts as they are meant
HOSTILE_TEXTS = ["", "x", "1.5", "3,3,3", "2^0", "9" * 5000, "1;1", "\x1c1"]


def _required_positional(fn) -> int:
    """The number of positional parameters ``fn`` requires; 1 for a callable
    whose signature is not introspectable (the exception classes)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:
        return 1
    return sum(
        p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        for p in params
    )


def _subcommands() -> list[str]:
    """The CLI's subcommand names, read off its parser."""
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(action.choices)


def _cli_argv(command: str, text: str) -> list[str]:
    """A ``command`` call that takes ``text`` where it reads its input."""
    if command == "compose":
        return ["compose", "--", text]
    if command == "generate":
        return ["generate", "--n", "5", "--k", "1", "--types", text]
    if command == "verify":
        return ["verify", text]
    return [command, "-d", text]


class TestPublicNames:
    def test_all_names_resolve_and_none_is_a_module(self):
        names = unigraph.__all__
        assert sorted(names) == sorted(PUBLIC)
        assert len(names) == len(set(names)) == 53
        for name in names:
            assert not isinstance(getattr(unigraph, name), types.ModuleType), name

    def test_star_import_binds_every_name(self):
        code = (
            "from unigraph import *\n"
            "import unigraph\n"
            "print(all(globals()[n] is getattr(unigraph, n) for n in unigraph.__all__))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "True\n"

    def test_dir_lists_every_name(self):
        assert set(unigraph.__all__) <= set(dir(unigraph))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            unigraph.no_such_name


def _paired_text(k: str, s: str) -> PairedDegreeSequence:
    return PairedDegreeSequence(parse_sequence(k), parse_sequence(s))


# record fields, well typed but malformed, for the second step of the
# sweep: a public record built from them, or from HOSTILE_VALUES, must be
# refused with a UnigraphError or be taken by every method and export
HOSTILE_ADJ = [
    ((5,),), ((1,), ()), ((0,),), ((1, 1), (0,)), ((2, 1), (0,), (0,)),
    ((1,), (0,), (-1,)), [[1], [0.5]], ["a"], ((True,), (False,)), [{1}, {0}],
]
HOSTILE_RUNS = [
    ((None, 1),), ((_paired_text("0", "-"),),), ((_paired_text("0", "-"), 0),),
    ((_paired_text("0", "-"), -2),), ((_paired_text("0", "-"), 1.5),),
    ((_paired_text("5", "-"), 1),), ((_paired_text("-", "-"), 1),),
    ((_paired_text("2^2", "1^2"), 2),), [(_paired_text("-", "0"), True)],
    ((_paired_text("9", "9^3"), 1),),
]
HOSTILE_TAILS = [parse_sequence("3,1^3"), parse_sequence("-"), parse_sequence("9")]
_SPQ = TypedComponent(Variant.ORIGINAL, Base.SPQ, (1, 2), 4)
_K1 = TypedComponent(Variant.ORIGINAL, Base.K1, (), 1)
HOSTILE_REPORT_RUNS = [
    ((None, 1),), ((_SPQ,),), ((_SPQ, 0),), ((_SPQ, -2),), ((_SPQ, 1.5),),
    ((_SPQ, 2),), ((TypedComponent(Variant.ORIGINAL, Base.SPQ, (0, 2), 2), 1),),
    ((TypedComponent(None, None, None, None), 1),),
    ((TypedComponent(Variant.INVERSE, Base.C5, (), 5), 1),),
    [(_K1, True)], ((_K1, 3), (_SPQ, 1)), (),
]
# (verdict, failure index) pairs for the report's other two fields
HOSTILE_VERDICTS = [
    (True, None), (False, 0), (False, 4), (True, 0), (False, None), (None, None),
    (1, None), (False, -1), (False, 1.5), (False, True),
]


def _graph_uses(g):
    """Every method and export that takes a graph, on g."""
    part = VertexPartition(frozenset(), frozenset(range(g.n)))
    calls = [
        g.edges, g.to_edge_list, g.to_json, lambda: g.m,
        lambda: [g.degree(v) for v in range(g.n)],
        lambda: [g.has_edge(0, v) for v in range(g.n)],
        lambda: unigraph.degree_sequence_of(g), lambda: unigraph.complement_graph(g),
        lambda: unigraph.compose_graphs(g, part, g),
        lambda: unigraph.inverse_graph(g, part),
    ]
    return calls


def _decomposition_uses(d):
    """Every method and export that takes a decomposition, on d."""
    return [lambda: d.runs, lambda: d.tail, lambda: d.components, lambda: d.n,
            lambda: unigraph.compact(d)]


def _report_uses(r):
    """Every method that takes a report, on r; no export takes one."""
    return [lambda: r.component_types, r.tags]


def _built(make, *fields):
    """make(*fields), or None when it raises a UnigraphError."""
    try:
        return make(*fields)
    except UnigraphError:
        return None


class TestHostileInputs:
    @pytest.mark.parametrize("adj", HOSTILE_VALUES + HOSTILE_ADJ)
    def test_graph_from_hostile_fields(self, adj):
        # step two: a record from hostile fields, then everything it goes to
        for make in (Graph, Graph.from_adjacency):
            g = _built(make, adj)
            for call in _graph_uses(g) if g is not None else ():
                try:
                    call()
                except UnigraphError:
                    pass

    @pytest.mark.parametrize("runs", HOSTILE_VALUES + HOSTILE_RUNS)
    def test_decomposition_from_hostile_fields(self, runs):
        for tail in HOSTILE_VALUES + HOSTILE_TAILS:
            d = _built(unigraph.Decomposition, runs, tail)
            for call in _decomposition_uses(d) if d is not None else ():
                try:
                    call()
                except UnigraphError:
                    pass

    @pytest.mark.parametrize("runs", HOSTILE_VALUES + HOSTILE_REPORT_RUNS)
    def test_report_from_hostile_fields(self, runs):
        for verdict, failure in HOSTILE_VERDICTS:
            r = _built(unigraph.UnigraphReport, verdict, runs, failure)
            for call in _report_uses(r) if r is not None else ():
                try:
                    call()
                except UnigraphError:
                    pass

    def test_report_constructor_refuses_malformed_fields(self):
        _, r = is_unigraph(parse_sequence("2^2,1^2"))
        with pytest.raises(FormatError):
            unigraph.UnigraphReport(True, None, None)
        for fields in [(1, r.runs, None), (True, r.runs, 0), (False, r.runs, None)]:
            with pytest.raises(FormatError):
                unigraph.UnigraphReport(*fields)
        assert unigraph.UnigraphReport(True, list(r.runs), None) == r

    @pytest.mark.parametrize("text", ["0^2", "1^2"])
    def test_vertex_ids_outside_the_graph_raise_format_error(self, text):
        # a graph built from its edges and one realized from its runs
        edges = [(0, 1)] if text == "1^2" else []
        for g in (Graph.from_edges(2, edges), realize(parse_sequence(text))):
            for v in HOSTILE_VALUES + [2, 5, 7]:
                for call in (g.degree, partial(g.has_edge, 0), lambda v: g.has_edge(v, 0)):
                    with pytest.raises(FormatError):
                        call(v)
            assert g.degree(1) == len(edges)
            assert g.has_edge(0, 1) == g.has_edge(True, 0) == bool(edges)

    @pytest.mark.parametrize(
        "name", [n for n in PUBLIC if callable(getattr(unigraph, n)) and n not in ENUMS]
    )
    def test_public_callable_raises_only_unigraph_errors(self, name):
        # each required argument gets the hostile value; success is allowed
        fn = getattr(unigraph, name)
        arity = _required_positional(fn)
        for value in HOSTILE_VALUES:
            try:
                fn(*[value] * arity)
            except UnigraphError:
                pass

    @pytest.mark.parametrize("name", ["core_params", "compact_typed", "unigraph_params"])
    def test_parameter_functions_take_a_sequence_only(self, name):
        # a hostile value, a decomposition, a report or the pair of them is
        # refused with a UnigraphError, never taken
        fn = getattr(unigraph, name)
        d, r = is_unigraph(parse_sequence("2^2,1^2"))
        for value in HOSTILE_VALUES + [d, r, (d, r), "2^2,1^2", [2, 2, 1, 1]]:
            with pytest.raises(UnigraphError):
                fn(value)

    @pytest.mark.parametrize("name", sorted(ENUMS))
    def test_enum_lookup_raises_value_error(self, name):
        for value in HOSTILE_VALUES:
            with pytest.raises(ValueError):
                getattr(unigraph, name)(value)

    @pytest.mark.parametrize("command", _subcommands())
    def test_cli_subcommand_exits_with_a_documented_code(self, command):
        # 0 or 1 from main, 2 from argparse; one JSON document in --json mode
        for mode in ([], ["--json"]):
            for text in HOSTILE_TEXTS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main(mode + _cli_argv(command, text))
                    except SystemExit as exc:
                        code = exc.code
                        assert code == 2, (mode, text)
                assert code in (0, 1, 2), (mode, text)
                if mode and code != 2:
                    json.loads(out.getvalue())

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda p: p.write_bytes(b"\xff\xfe3,2\n"), "FormatError"),
            (lambda p: p.mkdir(), "IsADirectoryError"),
        ],
        ids=["not-utf8", "directory"],
    )
    def test_cli_file_that_is_not_text(self, tmp_path, mode, make, error):
        # an error line on stderr and, with --json, one error document
        path = tmp_path / "seq"
        make(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(mode + ["is-unigraph", "--file", str(path)])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        if mode:
            assert json.loads(out.getvalue())["error"]["type"] == error
        else:
            assert out.getvalue() == ""


def _paired(k: str, s: str) -> PairedDegreeSequence:
    return PairedDegreeSequence(parse_sequence(k), parse_sequence(s))


# (field names, fresh instance, an unequal one, the literal repr of the
# first); each entry builds new objects, so equal instances are never the
# same object
RECORDS = {
    "DegreeSequence": lambda: (
        ("runs",),
        DegreeSequence(((3, 2), (1, 1))),
        DegreeSequence(((3, 2), (1, 2))),
        "DegreeSequence(runs=((3, 2), (1, 1)))",
    ),
    "PairedDegreeSequence": lambda: (
        ("kpart", "spart"),
        _paired("2^2", "1^2"),
        _paired("2^2", "2,0"),
        "PairedDegreeSequence(kpart=DegreeSequence(runs=((2, 2),)), "
        "spart=DegreeSequence(runs=((1, 2),)))",
    ),
    "Decomposition": lambda: (
        ("runs", "tail"),
        decompose(parse_sequence("2^2,1^2,0")),
        decompose(parse_sequence("2^2,1^2")),
        "Decomposition(runs=((PairedDegreeSequence(kpart=DegreeSequence(runs=()), "
        "spart=DegreeSequence(runs=((0, 1),))), 1),), "
        "tail=DegreeSequence(runs=((2, 2), (1, 2))))",
    ),
    "TypedComponent": lambda: (
        ("variant", "base", "params", "order"),
        TypedComponent(Variant.INVERSE, Base.SPQ, (1, 2), 3),
        TypedComponent(Variant.ORIGINAL, Base.SPQ, (1, 2), 3),
        "TypedComponent(variant=<Variant.INVERSE: 'inverse'>, base=<Base.SPQ: 'spq'>, "
        "params=(1, 2), order=3)",
    ),
    "UnigraphReport": lambda: (
        ("is_unigraph", "runs", "failure_index"),
        is_unigraph(parse_sequence("2^2,1^2"))[1],
        is_unigraph(parse_sequence("2^2,1^2,0"))[1],
        "UnigraphReport(is_unigraph=True, runs=((TypedComponent("
        "variant=<Variant.ORIGINAL: 'original'>, base=<Base.SPQ: 'spq'>, "
        "params=(1, 2), order=4), 1),), failure_index=None)",
    ),
    "GenSpec": lambda: (
        ("n", "k", "seed", "allowed"),
        GenSpec(10, 2, seed=3, allowed=[Base.K1]),
        GenSpec(10, 2, seed=4, allowed=[Base.K1]),
        "GenSpec(n=10, k=2, seed=3, allowed=frozenset({<Base.K1: 'k1'>}))",
    ),
    "Graph": lambda: (
        ("adj",),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(3, [(0, 1)]),
        "Graph(adj=((1,), (0, 2), (1,)))",
    ),
    # built from its runs, its adjacency read on first use
    "realized Graph": lambda: (
        ("adj",),
        realize(parse_sequence("2,1^2")),
        realize(parse_sequence("1^2,0")),
        "Graph(adj=((1, 2), (0,), (0,)))",
    ),
    "VertexPartition": lambda: (
        ("kset", "sset"),
        VertexPartition(frozenset({0}), frozenset({1, 2})),
        VertexPartition(frozenset({0, 1}), frozenset({2})),
        "VertexPartition(kset=frozenset({0}), sset=frozenset({1, 2}))",
    ),
    "ParamSet": lambda: (
        ("omega", "alpha", "beta", "chi", "fix", "dist"),
        ParamSet(omega=2, alpha=2, beta=2, chi=2, fix=1, dist=2),
        ParamSet(omega=2, alpha=2, beta=2, chi=2, fix=1, dist=3),
        "ParamSet(omega=2, alpha=2, beta=2, chi=2, fix=1, dist=2)",
    ),
    "SplitClass": lambda: (
        ("kind", "paired"),
        determine_split(parse_sequence("2^2,1^2")),
        SplitClass(SplitKind.NOT_SPLIT, None),
        "SplitClass(kind=<SplitKind.BALANCED: 'balanced'>, paired="
        + repr(_paired("2^2", "1^2")) + ")",
    ),
    "Permutation": lambda: (
        ("mapping",),
        Permutation((1, 0, 2)),
        Permutation((0, 1, 2)),
        "Permutation(mapping=(1, 0, 2))",
    ),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
class TestRecordSemantics:
    def test_literal_repr(self, make):
        _, record, _, text = make()
        assert repr(record) == text

    def test_equal_to_a_fresh_equal_instance(self, make):
        a, b = make()[1], make()[1]
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_hash_is_that_of_the_field_tuple(self, make):
        names, record, _, _ = make()
        assert hash(record) == hash(tuple(getattr(record, f) for f in names))

    def test_unequal_to_a_different_instance(self, make):
        _, record, other, _ = make()
        assert record != other and not record == other
        assert record != repr(record)

    def test_assignment_and_deletion_raise(self, make):
        names, record, _, _ = make()
        name = names[0]
        value = getattr(record, name)
        for target in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, target, value)
            with pytest.raises(AttributeError):
                delattr(record, target)
        assert getattr(record, name) is value

    def test_pickle_and_copy_round_trip(self, make):
        record = make()[1]
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)


class TestDegreeSequenceCache:
    def test_keeps_its_cached_order_and_verdict(self):
        s = parse_sequence("2^2,1^2")
        _, report = is_unigraph(s)
        assert {"n", "_unigraph"} <= vars(s).keys()
        assert s.n == 4
        assert is_unigraph(s)[1] is report

    def test_compares_by_runs_only(self):
        s = parse_sequence("2^2,1^2")
        is_unigraph(s)
        fresh = DegreeSequence(s.runs)
        assert "_unigraph" not in vars(fresh)
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh) == "DegreeSequence(runs=((2, 2), (1, 2)))"

    def test_pickle_carries_the_cache(self):
        s = parse_sequence("2^2,1^2")
        _, report = is_unigraph(s)
        clone = pickle.loads(pickle.dumps(s))
        assert vars(clone).keys() == vars(s).keys()
        assert is_unigraph(clone)[1] == report
