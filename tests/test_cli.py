"""End-to-end tests of the command-line interface.

Every invocation runs in-process through ``main`` with artifacts under a tmp
directory; determinism checks compare output files byte for byte.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from graphld import __version__
from graphld import cli, samplers
from graphld.cli import main
from graphld.measures import DegreeLaw, TreeMeasure
from graphld.rates import ReferenceLaw, extension_chain
from graphld.samplers import MarkedGraph

from helpers import (assert_same_graph_arrays, oracle_graph_file, per_draw_sampled_extension,
                     record_form, run_python, star)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def path3(tmp_path):
    g = MarkedGraph(
        3, [(0, 1), (1, 2)], [0, 0, 0],
        {(0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0},
    )
    p = tmp_path / "path3.json"
    p.write_text(json.dumps({"graph": g.to_obj()}))
    return p


@pytest.fixture
def truth_fixture(tmp_path):
    """Reference law for half degree-1, half degree-2 and its exact chain."""
    law = ReferenceLaw.fixed_alpha(
        {1: 0.5, 2: 0.5}, (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25))
    )
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(law.to_obj()))
    chain = extension_chain(law.materialize(), 2)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(
        {"levels": [chain.level(1).to_obj(), chain.level(2).to_obj()]}
    ))
    return law_path, chain_path


# ---------------------------------------------------------------- sample


def test_sample_cm_matching_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run("sample", "--ensemble", "cm", "--n", 4, "--alpha",
                   '{"1": 1.0}', "--seed", 1, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    g = MarkedGraph.from_obj(obj["graph"])
    assert g.n == 4 and len(g.edges) == 2
    assert sorted(v for e in g.edges for v in e) == [0, 1, 2, 3]
    assert obj["version"] == __version__
    assert len(obj["config_hash"]) == 16
    assert obj["config"]["seed"] == 1


def test_sample_fe_triangle(tmp_path):
    out = tmp_path / "tri.json"
    assert run("sample", "--ensemble", "fe", "--n", 3, "--m", 3,
               "--out", out) == 0
    g = MarkedGraph.from_obj(json.loads(out.read_text())["graph"])
    assert sorted(map(tuple, g.edges)) == [(0, 1), (0, 2), (1, 2)]


def test_sample_er_echoes_config(tmp_path):
    out = tmp_path / "er.json"
    assert run("sample", "--ensemble", "er", "--n", 10, "--kappa", 2,
               "--seed", 2, "--nu", "[0.5,0.5]", "--out", out) == 0
    obj = json.loads(out.read_text())
    assert obj["config"]["ensemble"] == "ER"
    assert obj["config"]["kappa"] == 2.0
    assert json.loads(out.read_text())["n"] == 10


def test_sample_er_without_vertices_writes_the_empty_graph(tmp_path):
    out = tmp_path / "er0.json"
    assert run("sample", "--ensemble", "er", "--n", 0, "--kappa", 0, "--out", out) == 0
    g = MarkedGraph.from_obj(json.loads(out.read_text())["graph"])
    assert (g.n, g.edges) == (0, ())


def test_sample_missing_required_flag(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("sample", "--ensemble", "er", "--n", 5, "--out", out) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "bad_config"


def test_sample_fe_edge_count_from_kappa(tmp_path):
    # round(50 * 3.1 / 2) = round(77.5) = 78 edges; the bytes are those of
    # the CLI's own rounding, before FE read the count from ModelConfig
    out = tmp_path / "fe.json"
    assert run("sample", "--ensemble", "fe", "--n", 50, "--kappa", 3.1, "--nu", "[0.5,0.5]",
               "--xi", "[[0.25,0.25],[0.25,0.25]]", "--seed", 4, "--out", out) == 0
    obj = json.loads(out.read_text())
    assert len(obj["graph"]["edges"]) == 78
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7c65fe3b255df2743b95663bcdf1527b35db32d05d057232e965c5567693556a")
    # the same file with its graph in the record form of earlier versions has
    # the bytes those versions wrote
    g = MarkedGraph.from_obj(obj["graph"])
    old = json.dumps({**obj, "graph": record_form(g)}, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256((old + "\n").encode()).hexdigest() == (
        "13d877d7525cb4e629c0218ee527be389970b28a4278ddc0f2b777e080f14d74")
    assert_same_graph_arrays(MarkedGraph.from_obj(json.loads(old)["graph"]), g)


@st.composite
def sample_runs(draw):
    """The arguments of a `sample` run over a small graph of any ensemble,
    with edges or without (m = 0 for degree 0, FE m = 0 and ER kappa = 0),
    and the unmarked graph it samples and the marked one it writes."""
    ensemble = draw(st.sampled_from(["cm", "fe", "er"]), label="ensemble")
    n, seed, marks = draw(st.integers(0, 12)), draw(st.integers(0, 2**32)), draw(st.integers(1, 2))
    nu = (1.0 / marks,) * marks
    xi = ((1.0 / marks**2,) * marks,) * marks
    if ensemble == "cm":
        degree = draw(st.sampled_from([0, 2] if n >= 3 else [0]), label="degree")
        flags = ["--alpha", json.dumps({str(degree): 1.0})]
        cfg = samplers.ModelConfig("CM", nu, xi, alpha=DegreeLaw({degree: 1.0}))
        sample = functools.partial(samplers.sample_cm, n, cfg)
    elif ensemble == "fe":
        m = draw(st.integers(0, n * (n - 1) // 2), label="m")
        flags = ["--m", m]
        sample = functools.partial(samplers.sample_fe, n, m)
    else:
        kappa = draw(st.sampled_from([0.0, 1.5] if n >= 2 else [0.0]), label="kappa")
        flags = ["--kappa", kappa]
        sample = functools.partial(samplers.sample_er, n, kappa)
    rng = samplers.make_rng(seed)
    bare = sample(rng)
    argv = ["sample", "--ensemble", ensemble, "--n", n, *flags, "--nu", json.dumps(nu),
            "--xi", json.dumps(xi), "--seed", seed]
    return argv, bare, samplers.assign_marks(bare, nu, xi, rng)


@settings(max_examples=80, deadline=None)
@given(sampled=sample_runs(), chunk=st.integers(1, 3))
def test_sample_streams_the_bytes_of_the_whole_graph_oracle(tmp_path_factory, sampled, chunk):
    # sample writes graph.json from the graph's arrays, JSON_CHUNK_ROWS rows at
    # a time (here 1 to 3, so rows cross chunk boundaries); the file must have
    # the bytes of the whole graph turned into lists and dumped in one piece
    d = tmp_path_factory.mktemp("stream")
    argv, bare, g = sampled
    n = g.n
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "JSON_CHUNK_ROWS", chunk)
        assert run(*argv, "--out", d / "graph.json") == 0
        config = json.loads((d / "graph.json").read_text())["config"]
        oracle_graph_file(d / "oracle.json", g, config)
        # sample always marks its graph: an unmarked one goes through the writer alone
        cli._write_json(d / "bare.json", {"graph": bare._file_fields(), "n": n}, config)
        oracle_graph_file(d / "bare_oracle.json", bare, config)
    for streamed, oracle, want in (("graph", "oracle", g), ("bare", "bare_oracle", bare)):
        assert (d / f"{streamed}.json").read_bytes() == (d / f"{oracle}.json").read_bytes()
        assert_same_graph_arrays(cli._load_graph(str(d / f"{streamed}.json")), want)


def _refuse(*args, **kwargs):
    raise AssertionError("json.load was called")


@settings(max_examples=80, deadline=None)
@given(sampled=sample_runs(), chunk=st.integers(1, 3))
def test_every_graph_file_sample_writes_loads_without_json_load(tmp_path_factory, sampled, chunk):
    # _load_graph reads the row fields of the writer's files with numpy, a
    # piece of 16 * JSON_CHUNK_ROWS bytes at a time (here 16 to 48 bytes, so
    # rows cross pieces): with json.load gone they still load, to the arrays
    # that json.load and from_obj give
    d = tmp_path_factory.mktemp("read")
    argv, bare, g = sampled
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "JSON_CHUNK_ROWS", chunk)
        assert run(*argv, "--out", d / "graph.json") == 0
        config = json.loads((d / "graph.json").read_text())["config"]
        cli._write_json(d / "bare.json", {"graph": bare._file_fields(), "n": bare.n}, config)
        for name, want in (("graph", g), ("bare", bare)):
            path = d / f"{name}.json"
            slow = MarkedGraph.from_obj(json.loads(path.read_text())["graph"])
            with pytest.MonkeyPatch.context() as no_load:
                no_load.setattr(json, "load", _refuse)
                got = cli._load_graph(str(path))
            assert_same_graph_arrays(got, slow)
            assert_same_graph_arrays(got, want)


def _writer_file(path, obj):
    """``obj`` written in the layout of ``_write_json``."""
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _graph_outcome(path):
    """What ``_load_graph`` makes of a file: its arrays, or its error."""
    try:
        g = cli._load_graph(str(path))
    except Exception as e:  # the outcomes compared include errors main would not catch
        return f"{type(e).__name__}: {e}"
    return g.n, [None if a is None else (a.dtype.str, a.tolist()) for a in (g._ends, g._vm, g._em)]


def _json_paths(value, path=()):
    """The path of every node of a JSON value, the value itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, sub in items:
        yield from _json_paths(sub, (*path, key))


# values that a mutation writes over a node of a graph file
MUTANTS = [None, -1, 0.5, 2**70, 2**63, 70000, math.nan, math.inf, -math.inf, "x", [], {}, True]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32), marked=st.booleans(),
       chunk=st.integers(1, 3), data=st.data())
def test_mutated_graph_files_read_the_same_by_both_readers(tmp_path_factory, n, seed, marked,
                                                          chunk, data):
    # a graph file in the writer's layout, mutated as an object (a node set to
    # an odd value, deleted or duplicated, a row of three, a record among rows)
    # and then as text (a digit replaced by "-", "1.0", "01", "1e3" or 2**63, a
    # space inserted): the fast reader and the json.load path give the same
    # graph or the same error, and the fast reader takes only files that are
    # the writer's bytes of their own contents
    d = tmp_path_factory.mktemp("mutant")
    rng = samplers.make_rng(seed)
    g = samplers.sample_er(n, 1.5, rng)
    if marked:
        g = samplers.assign_marks(g, (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25)), rng)
    obj = {"config": {"n": n, "seed": seed}, "graph": g.to_obj(), "n": n, "version": "x"}
    for _ in range(data.draw(st.integers(0, 2), label="object mutations")):
        at = data.draw(st.sampled_from(list(_json_paths(obj["graph"], ("graph",)))[1:]), label="at")
        parent = functools.reduce(lambda o, k: o[k], at[:-1], obj)
        op = data.draw(st.sampled_from(["set", "delete", "duplicate", "three", "record"]), label="op")
        if op == "set":
            parent[at[-1]] = data.draw(st.sampled_from(MUTANTS), label="value")
        elif op == "delete":
            del parent[at[-1]]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(at[-1], parent[at[-1]])
        elif op == "three" and isinstance(parent[at[-1]], list):
            parent[at[-1]] = [*parent[at[-1]], 0]
        elif op == "record" and at[1] == "emarks" and len(at) == 3:
            parent[at[-1]] = {"u": 0, "v": 1, "yu": 0, "yv": 0}
    path = d / "graph.json"
    _writer_file(path, obj)
    text = path.read_text()
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    if digits and data.draw(st.booleans(), label="replace a digit"):
        i = data.draw(st.sampled_from(digits), label="digit")
        new = data.draw(st.sampled_from(["-", "-1", "1.0", "01", "1e3", str(2**63)]), label="by")
        text = text[:i] + new + text[i + 1:]
    if data.draw(st.booleans(), label="insert a space"):
        i = data.draw(st.integers(0, len(text)), label="space")
        text = text[:i] + " " + text[i:]
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "JSON_CHUNK_ROWS", chunk)
        fast = _graph_outcome(path)
        if cli._read_graph_file(str(path)) is not None:
            assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text
        mp.setattr(cli, "_read_graph_file", lambda path: None)
        assert fast == _graph_outcome(path)


def _path3(**edit):
    """The graph file object of a marked path on 3 vertices, edited."""
    graph = {"n": 3, "edges": [[0, 1], [1, 2]], "vmarks": [0, 0, 0], "emarks": [[0, 0], [0, 0]]}
    return {"config": {}, "graph": {**graph, **edit}, "n": 3, "version": "x"}


@pytest.mark.parametrize("edit", [
    lambda t: t.replace(b'"emarks":[[0,0],[0,0]]',
                        b'"emarks":[{"u":0,"v":1,"yu":0,"yv":0},{"u":1,"v":2,"yu":0,"yv":0}]'),
    lambda t: t.replace(b'"graph":{"edges":[[0,1],[1,2]],"emarks":[[0,0],[0,0]],',
                        b'"graph":{"emarks":[[0,0],[0,0]],"edges":[[0,1],[1,2]],'),
    lambda t: t.replace(b'"n":3,"version"', b'"n": 3,"version"'),
    lambda t: t.replace(b"[1,2]", b"[1, 2]"),
    lambda t: t.rstrip(b"\n"),
    lambda t: t.replace(b'"version":"x"', '"version":"\u00e9"'.encode()),
    lambda t: t.replace(b"[1,2]", b"[1,2,0]"),
    lambda t: t.replace(b"[1,2]", b"[1,-2]"),
    lambda t: t.replace(b"[1,2]", b"[1,02]"),
    lambda t: t.replace(b"[1,2]", b"[1,2.0]"),
    lambda t: t.replace(b"[1,2]", b"[1,2e0]"),
    lambda t: t.replace(b"[1,2]", b"[1,%d]" % 2**63),
    lambda t: t.replace(b"[1,2]", b"[1,2],"),
    lambda t: t.replace(b'"vmarks":[0,0,0]', b'"vmarks":[0,0,0,]'),
    lambda t: t.replace(b',"vmarks":[0,0,0]', b""),
    lambda t: t.replace(b'"version":"x"', b'"version":NaN'),
    lambda t: t.replace(b'"config":{}', b'"config":{"graph":{"edges":[[0,1]]}}'),
], ids=["records", "key-order", "space-outside-rows", "space-in-a-row", "no-newline", "non-ascii",
        "row-of-three", "sign", "leading-zero", "fraction", "exponent", "past-int64",
        "trailing-comma", "trailing-comma-vmarks", "emarks-without-vmarks", "nan-elsewhere",
        "graph-in-config"])
def test_the_fast_reader_takes_only_the_writer_layout(edit, tmp_path):
    # every other file goes to json.load and from_obj, whose outcome stands
    path = tmp_path / "g.json"
    _writer_file(path, _path3())
    assert cli._read_graph_file(str(path)) is not None
    path.write_bytes(edit(path.read_bytes()))
    assert cli._read_graph_file(str(path)) is None


@pytest.mark.parametrize("edit, message", [
    ({"vmarks": [0, 0, 70000]}, "vmarks[2] must be in [0, 65535], not 70000"),
    ({"vmarks": [0, 0, -1]}, "vmarks[2] must be in [0, 65535], not -1"),
    ({"emarks": [[0, 0], [70000, 0]]}, "emarks[1] must be in [0, 65535], not [70000, 0]"),
    ({"emarks": [[0, 0], [0, -1]]}, "emarks[1] must be in [0, 65535], not [0, -1]"),
    ({"emarks": [{"u": 0, "v": 1, "yu": 70000, "yv": 0}, {"u": 1, "v": 2, "yu": 0, "yv": 0}]},
     "emarks[(0, 1)] must be in [0, 65535], not 70000"),
], ids=["vmark-70000", "vmark-negative", "emark-70000", "emark-negative", "record-70000"])
@pytest.mark.parametrize("layout", ["writer", "spaced"])
def test_empirical_of_a_mark_out_of_range_names_its_entry(edit, message, layout, tmp_path, capsys):
    # these used to be "mark index out of range", with no entry named; the
    # message is the same whichever reader takes the file
    path = tmp_path / "g.json"
    if layout == "writer":
        _writer_file(path, _path3(**edit))
    else:
        path.write_text(json.dumps(_path3(**edit)))
    assert run("empirical", "--graph", path, "--out-prefix", tmp_path / "e") == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == {"type": "bad_input", "message": f"ValueError: {message}"}
    assert out.err == ""
    assert os.listdir(tmp_path) == ["g.json"]
    # the writer's layout of a row mark past the range is read by the fast reader
    fast = layout == "writer" and "70000" in message and "(0, 1)" not in message
    assert (cli._read_graph_file(str(path)) is not None) == fast


def test_empirical_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without index outputs imports numpy.ma (1.2 MiB and 11-16 ms)
    # to ask whether its input is masked; building the views needs none of it
    code = ("import sys\n"
            "from graphld.cli import main\n"
            "main(['sample', '--ensemble', 'er', '--n', '30', '--kappa', '2', '--nu', '[0.5, 0.5]',"
            " '--seed', '1', '--out', 'g.json'])\n"
            "main(['empirical', '--graph', 'g.json', '--depth', '2', '--out-prefix', 'e'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    done = run_python(code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("ensemble, flags", [
    ("cm", ["--n", 3, "--alpha", '{"1": 1.0}']),  # odd total degree
    ("fe", ["--n", 3, "--m", 5]),                 # more edges than vertex pairs
    ("er", ["--n", 2, "--kappa", 5]),             # kappa above n
])
def test_sample_checks_the_mark_law_before_sampling(ensemble, flags, tmp_path, capsys):
    # each graph would fail to sample: the mark law is rejected first
    out = tmp_path / "g.json"
    assert run("sample", "--ensemble", ensemble, *flags, "--nu", "[0.5,0.6]",
               "--out", out) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "bad_input", "message": "ValueError: nu is not a probability vector"}
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("sample", "--alpha", '{"1": true}', '--alpha["1"] must be a number, not True'),
    ("sample", "--nu", "[true]", "--nu[0] must be a number, not True"),
    ("sample", "--xi", "[[true]]", "--xi[0][0] must be a number, not True"),
    ("sample", "--xi", "[1.0]", "--xi[0] must be a list, not 1.0"),
    ("gibbs", "--alpha", "[2]", "--alpha must be a dict, not [2]"),
    ("gibbs", "--nu", '{"0": 1.0}', "--nu must be a list, not {'0': 1.0}"),
    ("gibbs", "--hfun", '[0, "1"]', "--hfun[1] must be a number, not '1'"),
], ids=["alpha-true", "nu-true", "xi-true", "xi-row", "alpha-list", "nu-dict", "hfun-str"])
def test_a_flag_value_that_is_not_a_number_is_bad_input(command, flag, value, message,
                                                         tmp_path, monkeypatch, capsys):
    # float() used to read JSON `true` as 1.0, so these ran and wrote "nu": [1.0]
    monkeypatch.chdir(tmp_path)
    flags = dict(VALID_FLAGS[command], **{flag: value})
    argv = [command] + (["--ensemble", "cm"] if command == "sample" else [])
    argv += [f"{f}={v}" for f, v in flags.items()] + FIXED_FLAGS[command]
    assert run(*argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input", "message": f"ValueError: {message}"}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, alpha, key", [
    ("gibbs", '{"0_2": 1.0}', "0_2"),
    ("gibbs", '{"2": 1.0, "02": 1.0}', "02"),
    ("sample", '{"1": 0.5, "+3": 0.5}', "+3"),
], ids=["underscore", "two-spellings", "plus-sign"])
def test_a_degree_key_that_is_not_canonical_is_bad_input(command, alpha, key, tmp_path,
                                                         monkeypatch, capsys):
    # int() read "0_2" and "+3" as degrees, and of "2" and "02" the later
    # weight replaced the earlier one, so each of these runs exited 0
    monkeypatch.chdir(tmp_path)
    flags = dict(VALID_FLAGS[command], **{"--alpha": alpha})
    argv = [command] + (["--ensemble", "cm"] if command == "sample" else [])
    argv += [f"{f}={v}" for f, v in flags.items()] + FIXED_FLAGS[command]
    assert run(*argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input",
        "message": f"ValueError: --alpha key {key!r} is not a degree in canonical decimal form"}
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------- empirical


def test_empirical_path3_matches_library(path3, tmp_path):
    prefix = tmp_path / "p3"
    assert run("empirical", "--graph", path3, "--depth", 2,
               "--out-prefix", prefix) == 0
    L = TreeMeasure.from_obj(
        json.loads((tmp_path / "p3_L.json").read_text())["measure"]
    )
    end = star(0, (0,))
    mid = star(0, (0, 0))
    assert L.get(end) == pytest.approx(2 / 3, abs=1e-15)
    assert L.get(mid) == pytest.approx(1 / 3, abs=1e-15)
    U2 = TreeMeasure.from_obj(
        json.loads((tmp_path / "p3_U2.json").read_text())["measure"]
    )
    assert U2.non_tree_mass == 0.0
    assert math.fsum(w for _, w in U2.items()) == pytest.approx(1.0, abs=1e-15)
    csv_text = (tmp_path / "p3_L.csv").read_text().splitlines()
    assert csv_text[0].startswith("#config_hash,")
    assert csv_text[1] == f"#version,{__version__}"
    assert csv_text[2] == "encoding,weight"


def test_empirical_triangle_depth2_cyclic(tmp_path):
    g = MarkedGraph(
        3, [(0, 1), (0, 2), (1, 2)], [0, 0, 0],
        {(a, b): 0 for a in range(3) for b in range(3) if a != b},
    )
    gp = tmp_path / "tri.json"
    gp.write_text(json.dumps({"graph": g.to_obj()}))
    prefix = tmp_path / "tri"
    assert run("empirical", "--graph", gp, "--depth", 2,
               "--out-prefix", prefix) == 0
    U2 = TreeMeasure.from_obj(
        json.loads((tmp_path / "tri_U2.json").read_text())["measure"]
    )
    assert U2.non_tree_mass == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------- rate


def test_rate_truth_chain_all_forms_zero(truth_fixture, tmp_path):
    law_path, chain_path = truth_fixture
    report = tmp_path / "report.json"
    assert run("rate", "--ensemble", "cm", "--depth", 2, "--input", chain_path,
               "--law", law_path, "--report", report) == 0
    obj = json.loads(report.read_text())
    assert set(obj["reports"]) == {"component", "intermediate", "combinatorial"}
    for rep in obj["reports"].values():
        assert abs(rep["value"]) < 1e-10
    assert obj["agreement"]["max_spread"] < 1e-10
    assert obj["config_hash"] == json.loads(report.read_text())["config_hash"]


@pytest.mark.parametrize("degree", [{"alpha": {1: 0.5, 3: 0.5}}, {"poisson_mean": 2.0}],
                         ids=["fixed", "poisson"])
def test_rate_and_verify_of_a_fixed_degree_law_need_no_ensemble(degree, tmp_path, capsys):
    # with a fixed-degree or a Poisson --law and no --ensemble, the three
    # forms agree on an exact chain of mean degree 2.5 that deviates from the
    # law; the combinatorial form used to drop its degree-law term, for a
    # Poisson law at every mean but its own, and verify failed
    # three_form_agreement
    law = ReferenceLaw((0.5, 0.5), ((1.0,),), **degree)
    (tmp_path / "law.json").write_text(json.dumps(law.to_obj()))
    data = ReferenceLaw.fixed_alpha({1: 0.25, 3: 0.75}, (0.3, 0.7), ((1.0,),)).materialize()
    (tmp_path / "d1.json").write_text(json.dumps({"measure": data.to_obj()}))
    assert run("extend", "--input", tmp_path / "d1.json", "--depth", 2,
               "--out", tmp_path / "chain.json") == 0
    report = tmp_path / "rate.json"
    assert run("rate", "--input", tmp_path / "chain.json", "--law", tmp_path / "law.json",
               "--form", "all", "--report", report) == 0
    agreement = json.loads(report.read_text())["agreement"]
    assert agreement["max_spread"] <= 1e-9
    assert agreement["values"]["component"] > 0.1
    assert run("verify", "--input", tmp_path / "chain.json", "--law", tmp_path / "law.json") == 0
    # FE reads beta from its Poisson law: a mean of 2.5 against 2.0 is +inf
    # in every form; a fixed law is no FE reference
    capsys.readouterr()
    code = run("rate", "--input", tmp_path / "chain.json", "--law", tmp_path / "law.json",
               "--ensemble", "fe", "--form", "all", "--report", report)
    if law.alpha is None:
        assert code == 0
        assert set(json.loads(report.read_text())["agreement"]["values"].values()) == {math.inf}
    else:
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "rate_error",
            "message": "FE evaluation needs a Poisson degree law reference"}


def test_rate_single_form(truth_fixture, tmp_path):
    law_path, chain_path = truth_fixture
    report = tmp_path / "one.json"
    assert run("rate", "--form", "component", "--input", chain_path,
               "--law", law_path, "--report", report) == 0
    obj = json.loads(report.read_text())
    assert list(obj["reports"]) == ["component"]
    assert "agreement" not in obj


def test_rate_er_without_kappa_structured_error(truth_fixture, tmp_path, capsys):
    law_path, chain_path = truth_fixture
    assert run("rate", "--ensemble", "er", "--input", chain_path,
               "--law", law_path, "--report", tmp_path / "r.json") == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "rate_error"


@pytest.mark.parametrize("degree, message", [
    ({"type": "fixed", "pmf": 3}, "degree.pmf must be a dict, not 3"),
    ({"type": "fixed", "pmf": {"1": True}}, 'degree.pmf["1"] must be a number, not True'),
], ids=["pmf-number", "pmf-true"])
def test_rate_of_a_mistyped_law_is_bad_input(truth_fixture, tmp_path, degree, message, capsys):
    # a pmf that is not a map used to end in an AttributeError traceback
    # (exit 1), and JSON `true` was read as a weight of 1.0
    _, chain_path = truth_fixture
    law = json.dumps({"degree": degree, "nu": [1.0], "xi": [[1.0]]})
    assert run("rate", "--input", chain_path, "--law", law,
               "--report", tmp_path / "r.json") == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == {"type": "bad_input",
                                            "message": f"ValueError: {message}"}
    assert out.err == ""
    assert not (tmp_path / "r.json").exists()


def test_rate_of_a_law_with_a_padded_degree_key_is_bad_input(truth_fixture, tmp_path, capsys):
    # int(" 2") is 2, so this law used to be read as the fixture's own law
    _, chain_path = truth_fixture
    law = json.dumps({"degree": {"type": "fixed", "pmf": {"1": 0.5, " 2": 0.5}},
                      "nu": [0.5, 0.5], "xi": [[0.25, 0.25], [0.25, 0.25]]})
    assert run("rate", "--input", chain_path, "--law", law,
               "--report", tmp_path / "r.json") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input",
        "message": "ValueError: degree.pmf key ' 2' is not a degree in canonical decimal form"}
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------- verify


def test_verify_truth_chain_all_pass(truth_fixture, tmp_path):
    law_path, chain_path = truth_fixture
    report = tmp_path / "verify.json"
    assert run("verify", "--input", chain_path, "--law", law_path,
               "--ensemble", "cm", "--report", report) == 0
    obj = json.loads(report.read_text())
    assert obj["all_pass"] is True
    checks = {r["check"] for r in obj["rows"]}
    assert {"normalization", "tree_support", "chain_consistency",
            "admissibility", "pair_size_bias", "mass_transport",
            "three_form_agreement"} <= checks
    assert all(r["status"] == "PASS" for r in obj["rows"])
    assert (tmp_path / "verify.csv").exists()


def test_verify_asymmetric_measure_fails(tmp_path):
    # two root marks whose size-biased pair law cannot be symmetric
    atoms = {star(0, (1,)): 0.75, star(1, (0,)): 0.25}
    mp = tmp_path / "asym.json"
    mp.write_text(json.dumps(TreeMeasure(atoms, 0.0, 1).to_obj()))
    assert run("verify", "--input", mp) == 1
    report = tmp_path / "asym_report.json"
    assert run("verify", "--input", mp, "--report", report) == 1
    obj = json.loads(report.read_text())
    assert obj["all_pass"] is False
    admiss = [r for r in obj["rows"] if r["check"] == "admissibility"]
    assert admiss and admiss[0]["status"] == "FAIL"


# ---------------------------------------------------------------- gibbs


def test_gibbs_worked_instance_solution_and_mc(tmp_path):
    prefix = tmp_path / "gb"
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
               "--hfun", "[0.0,1.0]", "--c", 1.5, "--delta", 0.05,
               "--n", 20, "--samples", 300000, "--seed", 7,
               "--out-prefix", prefix) == 0
    sol = json.loads((tmp_path / "gb_solution.json").read_text())["solution"]
    assert sol["lambda"] == pytest.approx(0.54930, abs=1e-5)
    assert sol["gamma"]["2,1"] == pytest.approx(0.75, abs=1e-12)
    lines = (tmp_path / "gb_mc.csv").read_text().splitlines()
    assert lines[0].startswith("#config_hash,")
    table = dict(csv.reader(lines[2:]))
    assert int(table["accepted"]) > 0
    assert float(table["joint_tv"]) < 0.05
    assert "joint:2,1" in table
    # lattice h: the exact conditional TV is reported beside the sampled one
    assert float(table["exact_joint_tv"]) == pytest.approx(
        float(table["joint_tv"]), abs=5 * float(table["joint_se"]))


def test_gibbs_mc_csv_keys_in_report_field_order(tmp_path):
    prefix = tmp_path / "gb"
    assert run("gibbs", "--alpha", '{"1": 0.5, "3": 0.5}', "--nu", "[0.5,0.5]",
               "--hfun", "[0.0,1.0]", "--c", 1.5, "--n", 20, "--samples", 2000,
               "--seed", 3, "--out-prefix", prefix) == 0
    lines = (tmp_path / "gb_mc.csv").read_text().splitlines()
    assert [row[0] for row in csv.reader(lines[2:])] == [
        "key", "n", "delta", "threshold", "draws", "accepted", "acceptance_rate",
        "joint_tv", "joint_se", "leaf_tv", "leaf_se", "degree_marginal_exact",
        "fast_path", "exact_joint_tv", "exact_leaf_tv",
        "joint:1,0", "joint:1,1", "joint:3,0", "joint:3,1", "leaf:0", "leaf:1"]


def test_gibbs_solver_only_when_samples_zero(tmp_path):
    prefix = tmp_path / "solo"
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
               "--hfun", "[0.0,1.0]", "--c", 1.5, "--samples", 0,
               "--out-prefix", prefix) == 0
    assert (tmp_path / "solo_solution.json").exists()
    assert not (tmp_path / "solo_mc.csv").exists()


def test_gibbs_infeasible_threshold_structured_error(tmp_path, capsys):
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
               "--hfun", "[0.0,1.0]", "--c", 2.5,
               "--out-prefix", tmp_path / "bad") == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "hypothesis_violation"
    assert "essential supremum" in err["error"]["message"]
    assert "2.0" in err["error"]["message"]


def test_gibbs_accepts_flag_files(tmp_path):
    (tmp_path / "a.json").write_text('{"2": 1.0}')
    (tmp_path / "nu.json").write_text("[0.5, 0.5]")
    (tmp_path / "h.json").write_text("[0.0, 1.0]")
    prefix = tmp_path / "ff"
    assert run("gibbs", "--alpha", tmp_path / "a.json", "--nu",
               tmp_path / "nu.json", "--hfun", tmp_path / "h.json",
               "--c", 1.5, "--samples", 0, "--out-prefix", prefix) == 0
    sol = json.loads((tmp_path / "ff_solution.json").read_text())["solution"]
    assert sol["lambda"] == pytest.approx(math.log(3.0) / 2.0, abs=1e-10)


def test_gibbs_deterministic(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        prefix = tmp_path / name
        assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
                   "--hfun", "[0.0,1.0]", "--c", 1.5, "--n", 20,
                   "--samples", 100000, "--seed", 11,
                   "--out-prefix", prefix) == 0
        outs.append((tmp_path / f"{name}_mc.csv").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- extend


def test_extend_exact_chain(tmp_path):
    law = ReferenceLaw.fixed_alpha({1: 0.5, 2: 0.5}, (0.5, 0.5), ((1.0,),))
    ip = tmp_path / "d1.json"
    ip.write_text(json.dumps({"measure": law.materialize().to_obj()}))
    out = tmp_path / "chain.json"
    assert run("extend", "--input", ip, "--depth", 2, "--out", out) == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "exact"
    levels = [TreeMeasure.from_obj(o) for o in obj["levels"]]
    assert len(levels) == 2
    assert levels[1].depth_bound == 2
    ref = extension_chain(law.materialize(), 2)
    assert levels[1] == ref.level(2)


def test_extend_over_the_atom_limit_is_bad_input(tmp_path):
    # its depth-2 extension would have 9.5e10 atoms; run in a child process
    # so that a missing limit fails on the timeout instead of hanging the suite
    law = ReferenceLaw.fixed_alpha({1: 0.3, 2: 0.3, 4: 0.4}, (0.5, 0.5),
                                   ((0.25, 0.25), (0.25, 0.25)))
    (tmp_path / "d1.json").write_text(json.dumps({"measure": law.materialize().to_obj()}))
    res = run_python("import sys\nfrom graphld.cli import main\n"
                     "sys.exit(main(['extend', '--input', 'd1.json', '--depth', '2',"
                     " '--out', 'chain.json']))", tmp_path, timeout=30)
    assert res.returncode == 2, res.stdout + res.stderr
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "bad_input"
    assert err["message"].endswith("atoms (limit 1000000)")
    assert res.stderr == ""
    assert not (tmp_path / "chain.json").exists()


@pytest.fixture
def er_depth2(tmp_path):
    """``empirical --depth 2`` of a 20-vertex ER graph whose U_2 is all tree
    mass, and ``extend``'s own depth-2 chain of its L."""
    g = tmp_path / "g.json"
    assert run("sample", "--ensemble", "er", "--n", 20, "--kappa", 1, "--nu", "[0.5,0.5]",
               "--seed", 3, "--out", g) == 0
    assert run("empirical", "--graph", g, "--depth", 2, "--out-prefix", tmp_path / "emp") == 0
    assert run("extend", "--input", tmp_path / "emp_L.json", "--depth", 2,
               "--out", tmp_path / "chain.json") == 0
    return tmp_path


def _extend_to_depth3(d, name):
    """Extend ``d/name`` to depth 3 in exact mode; its levels as objects."""
    out = d / f"{name}.d3.json"
    assert run("extend", "--input", d / name, "--depth", 3, "--out", out) == 0
    assert run("verify", "--input", out) == 0
    levels = json.loads(out.read_text())["levels"]
    assert [o["depth_bound"] for o in levels] == [1, 2, 3]
    return levels


def test_extend_depth2_measure(er_depth2):
    u2 = json.loads((er_depth2 / "emp_U2.json").read_text())["measure"]
    assert TreeMeasure.from_obj(u2).non_tree_mass == 0.0
    levels = _extend_to_depth3(er_depth2, "emp_U2.json")
    assert levels[1] == u2
    assert levels[0] == TreeMeasure.from_obj(u2).truncated(1).to_obj()


def test_extend_own_depth2_chain(er_depth2):
    chain = json.loads((er_depth2 / "chain.json").read_text())["levels"]
    assert _extend_to_depth3(er_depth2, "chain.json")[:2] == chain


def test_rate_and_verify_read_a_depth2_measure(er_depth2, capsys):
    # a single depth-2 measure is completed by its depth-1 truncation
    d = er_depth2
    law = ReferenceLaw.poisson(1.0, (0.5, 0.5), ((1.0,),))
    (d / "law.json").write_text(json.dumps(law.to_obj()))
    assert run("rate", "--input", d / "emp_U2.json", "--law", d / "law.json",
               "--ensemble", "er", "--kappa", 1, "--form", "all",
               "--report", d / "rate.json") == 0
    agreement = json.loads((d / "rate.json").read_text())["agreement"]
    assert agreement["max_spread"] <= 1e-9
    assert all(math.isfinite(v) for v in agreement["values"].values())
    capsys.readouterr()
    assert run("verify", "--input", d / "emp_U2.json", "--law", d / "law.json",
               "--ensemble", "er", "--kappa", 1) == 0
    out = capsys.readouterr().out
    assert "chain_consistency [levels 1..2]" in out
    assert out.splitlines()[-1] == "ALL PASS"


@pytest.mark.parametrize("ensemble", [[], ["--ensemble", "er", "--kappa", 1.039]], ids=["none", "er"])
def test_rate_of_a_graph_with_hubs_past_the_poisson_table_is_finite(ensemble, tmp_path, capsys):
    # 20 hubs of degree 40 in 20 000 vertices: the Poisson(1.039) table stops
    # at degree 16, and every form used to read +inf (verify: ALL PASS); the
    # rate of a one-mark depth-1 law is H(degree law | Poisson(1.039))
    d = tmp_path
    assert run("sample", "--ensemble", "cm", "--n", 20000, "--alpha", '{"1": 0.999, "40": 0.001}',
               "--nu", "[1.0]", "--xi", "[[1.0]]", "--seed", 1, "--out", d / "g.json") == 0
    assert run("empirical", "--graph", d / "g.json", "--depth", 1, "--out-prefix", d / "emp") == 0
    law = ReferenceLaw.poisson(1.039, (1.0,), ((1.0,),))
    assert max(law.degree_pmf) < 40
    (d / "law.json").write_text(json.dumps(law.to_obj()))
    assert run("rate", "--input", d / "emp_L.json", "--law", d / "law.json", *ensemble,
               "--form", "all", "--report", d / "rate.json") == 0
    level = TreeMeasure.from_obj(json.loads((d / "emp_L.json").read_text())["measure"])
    want = math.fsum(w * (math.log(w) + 1.039 - k * math.log(1.039) + math.lgamma(k + 1))
                     for k, w in level.degree_law().items())
    assert abs(want - 1.1016625827128683) <= 1e-12
    values = json.loads((d / "rate.json").read_text())["agreement"]["values"]
    assert all(abs(v - want) <= 1e-12 for v in values.values()), values
    capsys.readouterr()
    assert run("verify", "--input", d / "emp_L.json", "--law", d / "law.json", *ensemble) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ALL PASS"


def test_rate_of_an_out_of_range_edge_mark_is_bad_input(er_depth2, capsys):
    # an edge mark the tree encoding cannot hold is bad input, not a traceback
    d = er_depth2
    obj = json.loads((d / "emp_L.json").read_text())
    atom = next(a for a in obj["measure"]["atoms"] if a["tree"]["children"])
    atom["tree"]["children"][0]["ym_child"] = 70000
    (d / "bad_L.json").write_text(json.dumps(obj))
    law = ReferenceLaw.poisson(1.0, (0.5, 0.5), ((1.0,),))
    (d / "law.json").write_text(json.dumps(law.to_obj()))
    capsys.readouterr()
    assert run("rate", "--input", d / "bad_L.json", "--law", d / "law.json",
               "--ensemble", "er", "--kappa", 1, "--report", d / "rate.json") == 2
    out = capsys.readouterr()
    err = json.loads(out.out)["error"]
    assert err["type"] == "bad_input"
    assert "mark index out of range" in err["message"]
    assert out.err == ""
    assert not (d / "rate.json").exists()


@pytest.mark.parametrize("value", [True, 0.5])
def test_rate_of_an_edge_mark_that_is_not_an_integer_is_bad_input(er_depth2, value, capsys):
    # JSON `true` used to be kept as an edge mark and 0.5 reported as out of range
    d = er_depth2
    obj = json.loads((d / "emp_L.json").read_text())
    i, atom = next((i, a) for i, a in enumerate(obj["measure"]["atoms"]) if a["tree"]["children"])
    atom["tree"]["children"][0]["ym_child"] = value
    (d / "bad_L.json").write_text(json.dumps(obj))
    law = ReferenceLaw.poisson(1.0, (0.5, 0.5), ((1.0,),))
    (d / "law.json").write_text(json.dumps(law.to_obj()))
    capsys.readouterr()
    assert run("rate", "--input", d / "bad_L.json", "--law", d / "law.json",
               "--ensemble", "er", "--kappa", 1, "--report", d / "rate.json") == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "bad_input", "message": f"ValueError: atoms[{i}].tree.children[0]"
                   f".ym_child must be an integer, not {value!r}"}
    assert not (d / "rate.json").exists()


LEAF = {"mark": 0, "children": []}
EDGE = {"mark": 0, "children": [{"ym_child": 0, "ym_root": 0, "tree": LEAF}]}


@pytest.mark.parametrize("measure, message", [
    ({"atoms": [{"tree": LEAF, "weight": "1.0"}]}, "atoms[0].weight must be a number, not '1.0'"),
    ({"atoms": [{"tree": LEAF, "weight": True}]}, "atoms[0].weight must be a number, not True"),
    ({"atoms": {"x": 1}}, "atoms must be a list, not {'x': 1}"),
    ({"atoms": [1, 2]}, "atoms[0] must be a dict, not 1"),
    ([{"tree": LEAF, "weight": 1.0}], "measure must be a dict, not [{"),
    ({"levels": {"0": {}}}, "levels must be a list, not {'0': {}}"),
    ({"levels": [{"atoms": [{"tree": LEAF, "weight": 0.5}, {"tree": {
        "mark": 0, "children": [{"ym_child": 0, "ym_root": "0", "tree": LEAF}]}, "weight": 0.5}]}]},
     "levels[0].atoms[1].tree.children[0].ym_root must be an integer, not '0'"),
    ({"levels": [{"atoms": [{"tree": EDGE, "weight": 1.0}]}, {"atoms": [{"tree": {
        "mark": 0, "children": [{"ym_child": 0, "ym_root": 0, "tree": EDGE}]}, "weight": 1.0}],
        "non_tree_mass": None}]},
     "levels[1].non_tree_mass must be a number, not None"),
    ({"atoms": [{"tree": 5, "weight": 1.0}]}, "atoms[0].tree must be a dict, not 5"),
    ({"atoms": [{"tree": {"mark": 0, "children": [5]}, "weight": 1.0}]},
     "atoms[0].tree.children[0] must be a dict, not 5"),
    ({"atoms": [{"tree": {"mark": 0}, "weight": 1.0}]},
     "atoms[0].tree.children must be a list, not None"),
    ({"atoms": [{"tree": LEAF, "weight": 0.5}, {"tree": EDGE, "weight": 0.25},
                {"tree": LEAF, "weight": 0.25}]}, "atoms[0] and atoms[2] list the same tree"),
], ids=["string-weight", "true-weight", "atoms-dict", "atoms-numbers", "list", "levels-dict",
        "level-mark", "level-mass", "tree-number", "child-number", "no-children",
        "repeated-tree"])
def test_rate_of_a_mistyped_measure_is_bad_input(measure, message, tmp_path, capsys):
    # a string or `true` weight used to be read as a number; the others ended
    # in a bare TypeError or KeyError, a bad mark was named without its atom,
    # and a repeated tree kept only its last weight
    (tmp_path / "m.json").write_text(json.dumps(measure))
    law = ReferenceLaw.poisson(1.0, (1.0,), ((1.0,),))
    (tmp_path / "law.json").write_text(json.dumps(law.to_obj()))
    assert run("rate", "--input", tmp_path / "m.json", "--law", tmp_path / "law.json",
               "--report", tmp_path / "rate.json") == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "bad_input"
    assert err["message"].startswith(f"ValueError: {message}")
    assert not (tmp_path / "rate.json").exists()


def _as_records(g):
    """A graph file object, rewritten in place in the record form of earlier versions."""
    g["emarks"] = [{"u": u, "v": v, "yu": yu, "yv": yv}
                   for (u, v), (yu, yv) in zip(g["edges"], g["emarks"])]
    return g


@pytest.mark.parametrize("edit, field", [
    (lambda g: g.update(vmarks=[1.5, True, 0]), "vmarks[0]"),
    (lambda g: _as_records(g)["emarks"][0].update(yu=0.9), "emarks[(0, 1)]"),
    (lambda g: g["emarks"][0].__setitem__(0, 0.9), "emarks[0]"),
], ids=["vmarks", "yu", "row"])
def test_empirical_of_a_mark_that_is_not_an_integer_is_bad_input(path3, edit, field, capsys):
    # these used to be truncated: vmarks [1.5, true] became (1, 1), yu 0.9 became 0;
    # "yu" edits the record form of earlier versions, "row" the rows of to_obj
    obj = json.loads(path3.read_text())
    edit(obj["graph"])
    path3.write_text(json.dumps(obj))
    prefix = path3.parent / "bad"
    assert run("empirical", "--graph", path3, "--out-prefix", prefix) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "bad_input"
    assert err["message"].startswith(f"ValueError: {field} must be an integer, not ")
    assert not (path3.parent / "bad_L.json").exists()


@pytest.mark.parametrize("graph, message", [
    (3, "graph must be a dict, not 3"),
    (None, "graph must be a dict, not None"),
    ([[0, 1]], "graph must be a dict, not [[0, 1]]"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": [0, 0], "emarks": 3},
     "emarks must be a list, not 3"),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "vmarks": [0, 0, 0],
      "emarks": [{"u": 0, "v": 1, "yu": 0, "yv": 0}, [1, 2, 0, 0]]},
     "emarks[1] must be a dict, not [1, 2, 0, 0]"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": [0, 0], "emarks": [[0, 1, 0]]},
     "emarks[0] must be a pair, not [0, 1, 0]"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": [0, 0], "emarks": [[0, True]]},
     "emarks[0] must be an integer, not True"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": [0, 0], "emarks": [[1.5, 0]]},
     "emarks[0] must be an integer, not 1.5"),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "vmarks": [0, 0, 0], "emarks": [[0, 0]]},
     "edge mark entries do not match the edge set"),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "vmarks": [0, 0, 0],
      "emarks": [[0, 0], {"u": 1, "v": 2, "yu": 0, "yv": 0}]},
     "emarks[1] must be a pair, not {'u': 1, 'v': 2, 'yu': 0, 'yv': 0}"),
    ({"n": 2, "edges": [[0, 1]], "emarks": [[0, 1]]},
     "vertex and edge marks must be supplied together"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": [0, 0]},
     "vertex and edge marks must be supplied together"),
    ({"n": 2, "edges": 5}, "edges must be a list, not 5"),
    ({"n": 2, "edges": [[0, 1]], "vmarks": 5, "emarks": [[0, 0]]}, "vmarks must be a list, not 5"),
], ids=["number", "null", "list", "emarks-number", "emarks-record-list", "row-of-3", "row-true",
        "row-1.5", "rows-too-few", "row-then-record", "emarks-only", "vmarks-only", "edges-number",
        "vmarks-number"])
def test_empirical_of_a_graph_of_the_wrong_type_is_bad_input(graph, message, tmp_path, capsys):
    # these used to end in an AttributeError traceback and exit 1, the code of a verify FAIL;
    # the first entry of emarks tells records (a dict) from rows (anything else); edge
    # marks without vertex marks were dropped (exit 0), and vertex marks without edge
    # marks ended in a bare KeyError; edges or vmarks of 5 used to be TypeErrors
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": graph}))
    assert run("empirical", "--graph", path, "--out-prefix", tmp_path / "e") == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == {"type": "bad_input",
                                            "message": f"ValueError: {message}"}
    assert out.err == ""
    assert os.listdir(tmp_path) == ["g.json"]


def test_empirical_of_a_graph_without_vertices_is_bad_input(tmp_path, capsys):
    # sample writes the empty graph; its measures, uniform over no vertices,
    # used to fail as "ValueError: empty count table"
    path = tmp_path / "g.json"
    assert run("sample", "--ensemble", "er", "--n", 0, "--kappa", 0, "--out", path) == 0
    capsys.readouterr()
    assert run("empirical", "--graph", path, "--out-prefix", tmp_path / "e") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input",
        "message": "ValueError: the graph has no vertices, so it has no empirical measures"}
    assert os.listdir(tmp_path) == ["g.json"]


@pytest.mark.parametrize("second", [{"u": 0, "v": 1, "yu": 1, "yv": 0},
                                    {"u": 1, "v": 0, "yu": 0, "yv": 1}], ids=["same", "reversed"])
def test_empirical_of_records_that_repeat_an_edge_is_bad_input(second, tmp_path, capsys):
    # the second record used to overwrite the first, and the run exited 0
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": {"n": 2, "edges": [[0, 1]], "vmarks": [0, 0], "emarks": [
        {"u": 0, "v": 1, "yu": 0, "yv": 0}, second]}}))
    assert run("empirical", "--graph", path, "--out-prefix", tmp_path / "e") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input", "message": "ValueError: emarks[1] repeats the edge of emarks[0]"}
    assert os.listdir(tmp_path) == ["g.json"]


def test_empirical_reads_the_record_form_of_earlier_versions(tmp_path):
    # a graph file as earlier versions wrote it gives the measures of its row form
    assert run("sample", "--ensemble", "er", "--n", 40, "--kappa", 2, "--nu", "[0.5,0.5]",
               "--xi", "[[0.1,0.2],[0.3,0.4]]", "--seed", 3, "--out", tmp_path / "g.json") == 0
    obj = json.loads((tmp_path / "g.json").read_text())
    _as_records(obj["graph"])
    (tmp_path / "old.json").write_text(json.dumps(obj))
    measures = []
    for name in ("g", "old"):
        assert run("empirical", "--graph", tmp_path / f"{name}.json", "--depth", 2,
                   "--out-prefix", tmp_path / name) == 0
        measures.append([json.loads((tmp_path / f"{name}_{h}.json").read_text())["measure"]
                         for h in ("L", "U1", "U2")])
    assert measures[0] == measures[1]


def test_empirical_of_a_graph_with_negative_n_is_bad_input(tmp_path, capsys):
    # this used to fail only inside numpy, as "'minlength' must not be negative"
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"graph": {"n": -3, "edges": []}}))
    assert run("empirical", "--graph", path, "--out-prefix", tmp_path / "e") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input", "message": "ValueError: n must be nonnegative, not -3"}
    assert os.listdir(tmp_path) == ["g.json"]


@pytest.fixture
def cyclic_u2(tmp_path):
    """The U_2 of a small ER graph, which has non-tree mass, and a Poisson law."""
    g = tmp_path / "g.json"
    assert run("sample", "--ensemble", "er", "--n", 20, "--kappa", 3, "--nu", "[0.5,0.5]",
               "--seed", 1, "--out", g) == 0
    assert run("empirical", "--graph", g, "--depth", 2, "--out-prefix", tmp_path / "emp") == 0
    u2 = json.loads((tmp_path / "emp_U2.json").read_text())["measure"]
    assert u2["non_tree_mass"] > 0
    law = ReferenceLaw.poisson(3.0, (0.5, 0.5), ((1.0,),))
    (tmp_path / "law.json").write_text(json.dumps(law.to_obj()))
    return tmp_path / "emp_U2.json", tmp_path / "law.json"


def test_rate_of_a_cyclic_depth2_measure_is_bad_input(cyclic_u2, tmp_path, capsys):
    # a U_2 with non-tree mass has no mean degree, and `rate` takes beta as
    # the mean degree of level 1: it exits 2 with a bad_input error, as a
    # non-tree depth-1 measure does
    u2, law = cyclic_u2
    capsys.readouterr()
    assert run("rate", "--input", u2, "--law", law,
               "--ensemble", "er", "--kappa", 3, "--report", tmp_path / "rate.json") == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "bad_input"
    assert "non_tree_mass > 0" in err["message"]
    assert not (tmp_path / "rate.json").exists()


@pytest.mark.parametrize("ensemble", [[], ["--ensemble", "er", "--kappa", 3]])
def test_verify_law_of_a_cyclic_depth2_measure_fails_its_form_row(ensemble, cyclic_u2, tmp_path):
    # verify reads beta inside the form check: a U_2 with non-tree mass is a
    # valid input that fails checks (exit 1), with --law as without; it used
    # to exit 2 as bad_input with --law
    u2, law = cyclic_u2
    report = tmp_path / "verify.json"
    assert run("verify", "--input", u2, "--law", law, *ensemble, "--report", report) == 1
    rows = {r["check"]: r for r in json.loads(report.read_text())["rows"]}
    assert rows["three_form_agreement"] == {
        "check": "three_form_agreement",
        "detail": "mean_degree needs full tree support, non_tree_mass > 0",
        "residual": math.inf, "tol": 1e-8, "status": "FAIL"}
    assert rows["tree_support"]["status"] == "FAIL"


def test_extend_sampling_matches_exact_marginally(tmp_path):
    law = ReferenceLaw.fixed_alpha({1: 0.6, 2: 0.4}, (1.0,), ((1.0,),))
    ip = tmp_path / "d1.json"
    ip.write_text(json.dumps({"measure": law.materialize().to_obj()}))
    out = tmp_path / "samp.json"
    assert run("extend", "--input", ip, "--depth", 2, "--samples", 4000,
               "--seed", 5, "--out", out) == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "sampled"
    emp = TreeMeasure.from_obj(obj["measure"])
    exact = extension_chain(law.materialize(), 2).level(2)
    # depth-1 truncations must agree within MC noise
    emp1 = emp.truncated(1)
    ex1 = exact.truncated(1)
    for t, w in ex1.items():
        assert emp1.get(t) == pytest.approx(w, abs=5 * math.sqrt(w / 4000) + 0.01)


def test_extend_deterministic(tmp_path):
    law = ReferenceLaw.fixed_alpha({2: 1.0}, (1.0,), ((1.0,),))
    ip = tmp_path / "d1.json"
    ip.write_text(json.dumps({"measure": law.materialize().to_obj()}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("extend", "--input", ip, "--depth", 3, "--samples", 500,
                   "--seed", 9, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def _write_measure(path, law):
    path.write_text(json.dumps({"measure": law.to_obj()}))
    return path


SAMPLED_LAW = ReferenceLaw.fixed_alpha({1: 0.6, 2: 0.4}, (0.5, 0.5), ((1.0,),))


def test_extend_samples_are_one_multinomial_over_the_extension_table(tmp_path):
    # the sampled file is, bit for bit, from_counts of one multinomial draw of
    # the seed's generator over the table that sample_ugwt draws from
    ip = _write_measure(tmp_path / "d1.json", SAMPLED_LAW.materialize())
    out = tmp_path / "samp.json"
    assert run("extend", "--input", ip, "--depth", 3, "--samples", 1000, "--seed", 5,
               "--out", out) == 0
    rho = TreeMeasure.from_obj(json.loads(ip.read_text())["measure"])
    atoms, p, _ = samplers._extension_table(rho, 1, 3)
    counts = samplers.make_rng(5).multinomial(1000, p)
    want = TreeMeasure.from_counts({t: int(c) for t, c in zip(atoms, counts) if c},
                                   depth_bound=3)
    assert json.loads(out.read_text())["measure"] == want.to_obj()
    assert atoms == tuple(t for t, _ in extension_chain(rho, 3).level(3).items())


def test_extend_samples_pass_a_chi_square_test_against_the_exact_extension(tmp_path):
    # the one multinomial draw and the per-draw oracle both follow the exact
    # depth-2 extension (54 atoms; the smallest expected counts are 82 and 20)
    exact = extension_chain(SAMPLED_LAW.materialize(), 2).level(2)
    ip = _write_measure(tmp_path / "d1.json", SAMPLED_LAW.materialize())
    out = tmp_path / "samp.json"
    assert run("extend", "--input", ip, "--depth", 2, "--samples", 20000, "--seed", 3,
               "--out", out) == 0
    sampled = TreeMeasure.from_obj(json.loads(out.read_text())["measure"])
    oracle = per_draw_sampled_extension(exact.truncated(1), 1, 2, 5000, 3)
    for got, k in ((sampled, 20000), (oracle, 5000)):
        assert set(got.atoms) <= set(exact.atoms)
        observed = [round(got.get(t) * k) for t, _ in exact.items()]
        assert sum(observed) == k
        expected = [w * k for _, w in exact.items()]
        assert stats.chisquare(observed, expected).pvalue > 1e-4


def test_extend_samples_above_the_multinomial_bound_is_bad_input(tmp_path, capsys):
    ip = _write_measure(tmp_path / "d1.json", SAMPLED_LAW.materialize())
    capsys.readouterr()
    assert run("extend", "--input", ip, "--depth", 2, "--samples", 2**63,
               "--out", tmp_path / "x.json") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input",
        "message": "ValueError: --samples 9223372036854775808 is not in [0, 2**63 - 1]"}
    assert run("extend", "--input", ip, "--depth", 2, "--samples", 2**63 - 1,
               "--out", tmp_path / "x.json") == 0
    sampled = json.loads((tmp_path / "x.json").read_text())["measure"]
    assert math.fsum(a["weight"] for a in sampled["atoms"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("depth", [1, 2])
def test_extend_samples_of_an_inadmissible_law_is_bad_input(depth, tmp_path, capsys):
    # the only atom's edge has mark 0 toward the root and 1 away from it, so
    # its pair law is asymmetric: refused at the input's own depth too
    law = TreeMeasure({star(0, [0], pair=(0, 1)): 1.0})
    ip = _write_measure(tmp_path / "bad.json", law)
    capsys.readouterr()
    assert run("extend", "--input", ip, "--depth", depth, "--samples", 5,
               "--out", tmp_path / "x.json") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "bad_input", "message": "ValueError: input law is inadmissible (asymmetry 1)"}
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------- error boundary


def test_cm_sampler_that_gives_up_is_not_bad_input(tmp_path, monkeypatch, capsys):
    # a graphical degree sequence whose pairings all got rejected is a valid
    # input: it used to be reported as bad_input, as a RuntimeError
    monkeypatch.setattr(samplers, "CM_RESTARTS", 0)
    with pytest.raises(samplers.SamplerGaveUp) as stop:
        samplers.sample_cm(4, samplers.ModelConfig("CM", (1.0,), ((1.0,),),
                                                   alpha=DegreeLaw({1: 1.0})), samplers.make_rng(1))
    assert isinstance(stop.value, RuntimeError)
    out = tmp_path / "g.json"
    assert run("sample", "--ensemble", "cm", "--n", 4, "--alpha", '{"1": 1.0}', "--out", out) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "sampler_gave_up",
        "message": "sampler gave up: no simple pairing of this graphical degree sequence"
                   " in CM_RESTARTS = 0 restarts"}
    assert not out.exists()


@pytest.mark.parametrize("argv, sampler", [
    (["sample", "--ensemble", "er", "--n", 10, "--kappa", 1, "--out", "g.json"], "sample_er"),
    (["sample", "--ensemble", "cm", "--n", 10, "--alpha", '{"2": 1.0}', "--out", "g.json"],
     "sample_cm"),
    (["sample", "--ensemble", "fe", "--n", 10, "--m", 10, "--out", "g.json"], "sample_fe"),
    (["empirical", "--graph", '{"graph": {"n": 10, "edges": []}}', "--out-prefix", "e"],
     None),
], ids=["er", "cm", "fe", "empirical"])
def test_a_graph_too_large_for_memory_is_a_structured_error(argv, sampler, tmp_path, monkeypatch,
                                                             capsys):
    # at n = 10**11 numpy raises a MemoryError, which used to end in a
    # traceback and exit 1, the code of a verify FAIL; the allocation is
    # stood in for here, never made
    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.chdir(tmp_path)
    if sampler:
        monkeypatch.setattr(samplers, sampler, too_large)
    else:
        monkeypatch.setattr(MarkedGraph, "from_obj", classmethod(too_large))
    assert run(*argv) == 2
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == {
        "type": "bad_input", "message": "MemoryError: Unable to allocate 745. GiB for an array"}
    assert out.err == ""
    assert os.listdir(tmp_path) == []


def _bad_inputs(d):
    """Files for the malformed-input cases, written under ``d``."""
    law = ReferenceLaw.poisson(1.0, (1.0,), ((1.0,),))
    (d / "law.json").write_text(json.dumps(law.to_obj()))
    ntm = TreeMeasure({star(0, (0,)): 0.5}, 0.5, 1)
    (d / "ntm.json").write_text(json.dumps({"measure": ntm.to_obj()}))
    (d / "loop.json").write_text(json.dumps({"n": 2, "edges": [[0, 0]]}))
    half = {"atoms": [{"tree": {"mark": 0, "children": []}, "weight": 0.5}]}
    (d / "half.json").write_text(json.dumps(half))
    (d / "edge.json").write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    edge_law = TreeMeasure({star(0, (0,)): 1.0}, 0.0, 1)
    (d / "edge_L.json").write_text(json.dumps({"measure": edge_law.to_obj()}))
    deep = TreeMeasure({star(0, (0,)): 1.0}, 0.0, 2)
    (d / "deep_chain.json").write_text(json.dumps({"levels": [deep.to_obj()]}))


# a valid measure, so that only the tolerance is malformed
LEAF_LAW = '{"atoms": [{"tree": {"mark": 0, "children": []}, "weight": 1.0}]}'
BAD_INPUTS = {
    "cm_odd_total_degree": ["sample", "--ensemble", "cm", "--n", 3,
                            "--alpha", '{"1": 1.0}', "--out", "g.json"],
    "fe_too_many_edges": ["sample", "--ensemble", "fe", "--n", 4, "--m", 100,
                          "--out", "g.json"],
    "nu_not_json": ["sample", "--ensemble", "er", "--n", 4, "--kappa", 1.0,
                    "--nu", "notjson", "--out", "g.json"],
    "rate_non_tree_no_beta": ["rate", "--input", "ntm.json", "--law", "law.json",
                              "--report", "r.json"],
    "empirical_self_loop": ["empirical", "--graph", "loop.json", "--out-prefix", "e"],
    "verify_half_mass": ["verify", "--input", "half.json"],
    # a level list whose level 1 declares depth 2, as with two levels or more
    "verify_level_deeper_than_its_index": ["verify", "--input", "deep_chain.json"],
    "fe_non_square_xi": ["sample", "--ensemble", "fe", "--n", 10, "--m", 5,
                         "--nu", "[1.0]", "--xi", "[[0.5,0.5]]", "--out", "g.json"],
    "fe_negative_m": ["sample", "--ensemble", "fe", "--n", 10, "--m", -5, "--out", "g.json"],
    "fe_negative_kappa": ["sample", "--ensemble", "fe", "--n", 10, "--kappa", -2,
                          "--out", "g.json"],
    "verify_nan_tol": ["verify", "--input", LEAF_LAW, "--tol", "nan"],
    "verify_negative_tol": ["verify", "--input", LEAF_LAW, "--tol=-1e-9"],
    # usage errors that argparse itself detects
    "verify_tol_read_as_option": ["verify", "--input", LEAF_LAW, "--tol", "-1e-9"],
    "fe_m_not_int": ["sample", "--ensemble", "fe", "--n", 10, "--m", "abc",
                     "--out", "g.json"],
    "unknown_subcommand": ["frobnicate", "--out", "g.json"],
    # beta is the mean degree of level 1, or the mean of FE's Poisson law
    "rate_beta_is_not_an_option": ["rate", "--input", "edge_L.json", "--law", "law.json",
                                   "--beta", 1.0, "--report", "r.json"],
    "empirical_negative_depth": ["empirical", "--graph", "edge.json", "--depth", -1,
                                 "--out-prefix", "e"],
    "gibbs_negative_samples": ["gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
                               "--hfun", "[0.0,1.0]", "--c", 1.5, "--samples", -1,
                               "--out-prefix", "gb"],
    # the depth-1 law of a single edge, extended to no deeper depth
    "extend_negative_depth": ["extend", "--input", "edge_L.json", "--depth", -1,
                              "--out", "x.json"],
    "extend_zero_depth": ["extend", "--input", "edge_L.json", "--depth", 0, "--out", "x.json"],
    "extend_negative_samples": ["extend", "--input", "edge_L.json", "--depth", 2,
                                "--samples", -3, "--out", "x.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_structured_error(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _bad_inputs(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert run(*BAD_INPUTS[case]) == 2
    out = capsys.readouterr()
    err = json.loads(out.out)
    assert err["error"]["type"] == "bad_input"
    assert err["error"]["message"]
    assert out.err == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        run(*argv)
    assert stop.value.code == 0
    assert "usage: graphld" in capsys.readouterr().out


def test_gibbs_n_zero_is_mc_error(tmp_path, capsys):
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]",
               "--hfun", "[0.0,1.0]", "--c", 1.5, "--n", 0, "--samples", 10,
               "--out-prefix", tmp_path / "gb") == 2
    err = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert err["error"]["type"] == "mc_error"
    assert "n must be at least 1" in err["error"]["message"]
    # n is checked before the solution is written
    assert list(tmp_path.iterdir()) == []


def test_gibbs_draw_budget_beyond_numpy_is_mc_error(tmp_path, capsys):
    # this used to end as "OverflowError: Python int too large to convert to C long"
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]", "--hfun", "[0,1]",
               "--c", 1.5, "--n", 400, "--samples", 10**20, "--out-prefix", tmp_path / "gb") == 2
    err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
    assert err == {"type": "mc_error", "message": "samples must be in [1, 2305843009213693952],"
                   " not 100000000000000000000"}
    # so are the samples: no solution file either
    assert list(tmp_path.iterdir()) == []


def test_gibbs_nan_slack_is_a_hypothesis_violation(tmp_path, capsys):
    # NaN passed the slack check: a solution was written, then the MC failed
    assert run("gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5,0.5]", "--hfun", "[0,1]",
               "--c", 1.5, "--samples", 10, "--delta", "nan", "--out-prefix", tmp_path / "gb") == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "hypothesis_violation", "message": "delta must be positive, not nan"}
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- runtime imports


def test_import_loads_no_numpy_scipy_or_networkx(tmp_path):
    res = run_python(
        "import sys, graphld, graphld.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'numpy', 'scipy'}))",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_of_samplers_gibbs_and_rates_loads_no_numpy_or_scipy(tmp_path):
    # the import that the benchmark's set-up pays: numpy and scipy load
    # inside the functions that use them
    res = run_python(
        "import sys, graphld.samplers, graphld.gibbs, graphld.rates\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_sample_cm_runs_without_networkx(tmp_path):
    res = run_python(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from graphld.cli import main\n"
        "sys.exit(main(['sample', '--ensemble', 'cm', '--n', '20', '--alpha',"
        " '{\"1\": 0.5, \"3\": 0.5}', '--seed', '3', '--out', 'g.json']))",
        tmp_path,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    g = MarkedGraph.from_obj(json.loads((tmp_path / "g.json").read_text())["graph"])
    assert g.degree_histogram() == {1: 10, 3: 10}


LAW = json.dumps({"degree": {"type": "fixed", "pmf": {"1": 0.5, "3": 0.5}},
                  "nu": [0.5, 0.5], "xi": [[1.0]]})
PIPELINE = [
    ["sample", "--ensemble", "cm", "--n", "60", "--alpha", '{"1": 0.5, "3": 0.5}',
     "--nu", "[0.5, 0.5]", "--xi", "[[1.0]]", "--seed", "7", "--out", "graph.json"],
    ["empirical", "--graph", "graph.json", "--depth", "2", "--out-prefix", "emp"],
    ["rate", "--input", "emp_L.json", "--law", LAW, "--ensemble", "cm", "--form", "all",
     "--report", "rate.json"],
    ["extend", "--input", "emp_L.json", "--depth", "2", "--out", "chain.json"],
    ["verify", "--input", "chain.json", "--law", LAW, "--ensemble", "cm",
     "--report", "verify.json"],
    ["extend", "--input", "emp_L.json", "--depth", "2", "--samples", "3", "--seed", "5",
     "--out", "sampled.json"],
    ["gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5, 0.5]", "--hfun", "[0, 1]", "--c", "1.5",
     "--n", "40", "--samples", "100000", "--seed", "1", "--out-prefix", "gibbs"],
]


# per command: the module it runs without, the pipeline steps that write its
# inputs, and its own step
BLOCKED = {
    "empirical": ("scipy", PIPELINE[:1], PIPELINE[1]),
    "rate": ("numpy", PIPELINE[:2], PIPELINE[2]),
    "extend": ("numpy", PIPELINE[:2], PIPELINE[3]),
    "verify": ("numpy", PIPELINE[:2] + PIPELINE[3:4], PIPELINE[4]),
    "gibbs": ("scipy", [], PIPELINE[6]),
}


@pytest.mark.parametrize("command", sorted(BLOCKED))
def test_command_runs_without_the_module_it_does_not_use(command, tmp_path, monkeypatch):
    # a module set to None in sys.modules cannot be imported: the command
    # must not need it, and writes the bytes it writes with it
    module, setup, argv = BLOCKED[command]
    ref, blocked = tmp_path / "ref", tmp_path / "blocked"
    ref.mkdir()
    monkeypatch.chdir(ref)
    for step in setup:
        assert run(*step) == 0
    shutil.copytree(ref, blocked)
    inputs = set(os.listdir(ref))
    assert run(*argv) == 0
    res = run_python(f"import sys\nsys.modules[{module!r}] = None\n"
                     f"from graphld.cli import main\nsys.exit(main({argv!r}))", blocked)
    assert res.returncode == 0, res.stdout + res.stderr
    files = {p.name: p.read_bytes() for p in ref.iterdir()}
    assert set(files) > inputs
    assert {p.name: p.read_bytes() for p in blocked.iterdir()} == files


def test_rate_loads_only_the_modules_it_runs(tmp_path):
    # graphld resolves its public names on first access, and each command
    # imports what it runs: `rate` needs no graph, sampler or Gibbs code
    (tmp_path / "mu.json").write_text(json.dumps(
        {"measure": TreeMeasure({star(0, [0]): 1.0}, 0.0, 1).to_obj()}))
    res = run_python(
        "import json, sys\nfrom graphld.cli import main\n"
        f"code = main(['rate', '--input', 'mu.json', '--law', {LAW!r}, '--report', 'r.json'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('graphld'))]))",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [
        0, ["graphld", "graphld.cli", "graphld.measures", "graphld.rates", "graphld.trees"]]


def test_star_import_binds_every_public_name(tmp_path):
    res = run_python(
        "import graphld\nnames = {}\nexec('from graphld import *', names)\n"
        "print(sorted(set(graphld.__all__) - set(names)),"
        " set(graphld.__all__) <= set(dir(graphld)))",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]", "True"]


def test_pipeline_artifacts_independent_of_the_process(tmp_path):
    # trees hash by identity, so the order of a set of trees follows memory
    # addresses: two fresh interpreters with different hash seeds must still
    # write the same bytes
    runs = []
    for seed in ("1", "12345"):
        d = tmp_path / seed
        d.mkdir()
        res = run_python("import sys\nfrom graphld.cli import main\n"
                     f"sys.exit(max(main(argv) for argv in {PIPELINE!r}))", d,
                     PYTHONHASHSEED=seed)
        assert res.returncode == 0, res.stdout + res.stderr
        runs.append((res.stdout, {p.name: p.read_bytes() for p in d.iterdir()}))
    (out_a, files_a), (out_b, files_b) = runs
    assert sorted(files_a) == sorted(files_b)
    assert len(files_a) == 14
    for name, blob in files_a.items():
        assert blob == files_b[name], name
    assert out_a == out_b


# arbitrary JSON, plus near-valid mark vectors, matrices and degree laws
WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
JSON_LITERALS = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.integers(-1, 4).map(str) | st.text(max_size=3), kids, max_size=4),
    max_leaves=8,
) | st.lists(WEIGHTS, min_size=1, max_size=3) | st.lists(
    st.lists(WEIGHTS, min_size=1, max_size=2), min_size=1, max_size=2
) | st.dictionaries(st.integers(0, 4).map(str), WEIGHTS, min_size=1, max_size=3)

VALID_FLAGS = {
    "sample": {"--nu": "[0.5,0.5]", "--xi": "[[0.25,0.25],[0.25,0.25]]",
               "--alpha": '{"1": 0.5, "3": 0.5}'},
    "rate": {"--input": "edge_L.json", "--law": "law.json"},
    "gibbs": {"--alpha": '{"2": 1.0}', "--nu": "[0.5,0.5]", "--hfun": "[0.0,1.0]"},
}
FIXED_FLAGS = {
    "sample": ["--n", 6, "--kappa", 1.0, "--m", 3, "--out", "g.json"],
    "rate": ["--report", "r.json"],
    "gibbs": ["--c", 1.5, "--samples", 0, "--out-prefix", "gb"],
}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(VALID_FLAGS)),
    ensemble=st.sampled_from(["cm", "fe", "er"]),
    data=st.data(),
)
def test_cli_fuzz_json_flags_exit_0_or_structured_2(tmp_path_factory, command, ensemble, data):
    d = tmp_path_factory.mktemp("fuzz")
    _bad_inputs(d)
    flags = dict(VALID_FLAGS[command])
    for flag in data.draw(st.sets(st.sampled_from(sorted(flags)))):
        flags[flag] = json.dumps(data.draw(JSON_LITERALS, label=flag))
    argv = [command] + (["--ensemble", ensemble] if command == "sample" else [])
    argv += [f"{flag}={value}" for flag, value in flags.items()] + FIXED_FLAGS[command]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(d)
    try:
        with contextlib.redirect_stdout(out):
            code = run(*argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2)
    if code == 2:
        assert "type" in json.loads(out.getvalue().splitlines()[-1])["error"]
