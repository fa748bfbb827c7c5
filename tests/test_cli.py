"""Harness behavior: determinism, exit codes, schemas, error pointers."""

import hashlib
import itertools
import json
import random

import pytest
from conftest import run_python

from strat_ic import cli, linalg, sheaves
from strat_ic.examples import get_example
from strat_ic.linalg import CertificateError, CochainComplex


def run(args, tmp_path, name="out.json"):
    """Invoke main() with --output and return (exit_code, bytes)."""
    path = tmp_path / name
    code = cli.main(list(args) + ["--output", str(path)])
    return code, path.read_bytes()


# -- determinism -----------------------------------------------------------

def test_proptest_bytes_reproducible(tmp_path):
    c1, b1 = run(["proptest", "--seed", "3"], tmp_path, "a.json")
    c2, b2 = run(["proptest", "--seed", "3"], tmp_path, "b.json")
    assert c1 == c2 == 0
    assert b1 == b2


def test_seed_changes_report(tmp_path):
    _, b1 = run(["proptest", "--seed", "0"], tmp_path, "a.json")
    _, b2 = run(["proptest", "--seed", "1"], tmp_path, "b.json")
    assert b1 != b2


def test_ih_bytes_reproducible(tmp_path):
    c1, b1 = run(["ih", "--example", "cone-s1"], tmp_path, "a.json")
    c2, b2 = run(["ih", "--example", "cone-s1"], tmp_path, "b.json")
    assert c1 == c2 == 0
    assert b1 == b2


# -- exit codes ------------------------------------------------------------

def test_exit_zero_on_pass(capsys):
    assert cli.main(["build", "--example", "s1"]) == 0
    capsys.readouterr()


def test_exit_two_on_unknown_example(capsys):
    assert cli.main(["build", "--example", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_exit_two_on_missing_input(capsys):
    assert cli.main(["build"]) == 2
    err = capsys.readouterr().err
    assert "--example" in err and "--input" in err


def test_exit_two_on_bad_perversity(capsys):
    assert cli.main(["ih", "--example", "cone-s1",
                     "--perversity", "sideways"]) == 2
    assert "/perversity" in capsys.readouterr().err


def test_mutation_sentinel_fails(tmp_path):
    code, payload = run(["proptest", "--seed", "0", "--mode", "mutate-cup"],
                        tmp_path)
    assert code == 1
    doc = json.loads(payload)
    bad = [r for r in doc["rows"] if r["verdict"] is False]
    assert bad, "flipped cup sign must trip graded commutativity"
    assert any("counterexample" in r["values"] for r in bad
               if isinstance(r["values"], dict))


def _pairwise_graded_commutativity(space, cc, flip=False):
    """Reference: the cup check as one evaluation per ordered pair of
    H^1 basis classes, each pair against its swap."""
    from strat_ic import duality
    cx = space.complex
    if space.singular_levels() or cx.dim != 2:
        return None
    try:
        signs = duality.orient_top_cells(cx)
    except duality.NotOrientable:
        return None
    basis = cc.cohomology_basis(1)
    if not basis:
        return None
    sign = 1 if flip else -1
    pos = duality._positions(cx, 1)
    return all(duality._cup_eval(signs, 1, a, b, pos, pos)
               == sign * duality._cup_eval(signs, 1, b, a, pos, pos)
               for a in basis for b in basis)


@pytest.mark.parametrize("name", ["t2", "genus2", "product:s1,s1", "s2",
                                  "cone-t2"])
@pytest.mark.parametrize("flip", [False, True])
def test_graded_commutativity_matches_the_pairwise_reference(name, flip):
    # the check reads one cup pairing matrix; its verdict is the pairwise
    # loop's, True unflipped and False flipped on a surface with H^1, None
    # on s2 (no H^1) and cone-t2 (singular)
    space = get_example(name)
    cc = space.complex.cochain_complex()
    got = cli._check_graded_commutativity(space, cc, flip)
    assert got == _pairwise_graded_commutativity(space, cc, flip)
    assert got is (None if name in ("s2", "cone-t2") else not flip)


def test_mutation_counterexample_replays_through_input(tmp_path):
    # shrunk candidates are validated, so the counterexample is a space
    # that --input accepts
    code, payload = run(["proptest", "--seed", "0", "--mode", "mutate-cup"],
                        tmp_path)
    assert code == 1
    found = [r["values"]["counterexample"] for r in json.loads(payload)["rows"]
             if isinstance(r["values"], dict)]
    assert found
    for i, doc in enumerate(found):
        stages = {}
        for cell, level in doc["levels"]:
            stages.setdefault(str(level), []).append(cell)
        path = tmp_path / ("counterexample-%d.json" % i)
        path.write_text(json.dumps({"schema": 1,
                                    "n_vertices": doc["n_vertices"],
                                    "simplices": doc["simplices"],
                                    "filtration": stages}))
        code, out = run(["build", "--input", str(path)], tmp_path,
                        name="build-%d.json" % i)
        assert code == 0, out
        assert row(json.loads(out), "stratification-valid")["verdict"] is True


def test_shrink_lets_a_certificate_failure_escape(tmp_path, monkeypatch):
    # a CertificateError is a bug, not a refused candidate: raised by a
    # check on a shrink candidate, it must reach the caller
    shrinking, shrunk = [], []
    real_shrink, real_check = cli._shrink, cli._check_graded_commutativity

    def shrink(space, failing):
        shrinking.append(space)
        try:
            return real_shrink(space, failing)
        finally:
            shrunk.append(shrinking.pop())

    def check(space, cc, flip=False):
        if shrinking and space is not shrinking[-1]:
            raise CertificateError("planted on a shrink candidate")
        return real_check(space, cc, flip)

    monkeypatch.setattr(cli, "_shrink", shrink)
    monkeypatch.setattr(cli, "_check_graded_commutativity", check)
    with pytest.raises(CertificateError, match="planted"):
        run(["proptest", "--seed", "0", "--mode", "mutate-cup"], tmp_path)
    assert shrunk


# -- the constant sheaf against the cochains -------------------------------

def _count_reductions(monkeypatch):
    """The complexes `linalg._reduce_units` is called on from now on."""
    reduced = []
    reduce_units = linalg._reduce_units

    def counting(cx, matching=()):
        reduced.append(cx)
        return reduce_units(cx, matching)

    monkeypatch.setattr(linalg, "_reduce_units", counting)
    return reduced


def _alter_constant_sheaf_complex(monkeypatch, change):
    """Make `sheaves.incidence_complex` of a constant sheaf return its
    complex with each differential d^k replaced by `change(k, d^k)`, so
    that it differs from the simplicial cochains, which no built-in example
    does."""
    incidence_complex = sheaves.incidence_complex

    def altered(sheaf):
        cx, layout = incidence_complex(sheaf)
        if sheaf.identity_restrictions:
            cx = CochainComplex._of(cx.dims, {k: change(k, d)
                                              for k, d in cx.diffs.items()})
        return cx, layout

    monkeypatch.setattr(sheaves, "incidence_complex", altered)


def test_sheaf_reduces_one_complex(tmp_path, monkeypatch):
    # the incidence complex equals the cochains, so the oracle reads its
    # reduction and the cochains are not reduced again
    reduced = _count_reductions(monkeypatch)
    code, payload = run(["sheaf", "--example", "product:t2,s1"], tmp_path)
    assert code == 0
    assert len(reduced) == 1
    assert row(json.loads(payload), "simplicial-betti")["values"] == \
        [1, 3, 3, 1]
    # and proptest's gluing check reduces neither
    reduced.clear()
    space = get_example("product:t2,s1")
    assert cli._check_gluing(space, space.complex.cochain_complex()) is True
    assert reduced == []


def test_sheaf_reduces_cochains_that_differ_with_equal_betti(
        tmp_path, monkeypatch):
    _alter_constant_sheaf_complex(monkeypatch, lambda k, d: d.scale(-1))
    reduced = _count_reductions(monkeypatch)
    code, payload = run(["sheaf", "--example", "t2"], tmp_path)
    assert code == 0
    assert len(reduced) == 2
    doc = json.loads(payload)
    assert row(doc, "simplicial-betti")["values"] == [1, 2, 1]
    assert row(doc, "simplicial-betti")["verdict"] is True
    code, payload = run(["proptest", "--seed", "0"], tmp_path)
    assert code == 0


def test_sheaf_and_gluing_fail_when_the_betti_numbers_differ(
        tmp_path, monkeypatch):
    # a zero d^0 raises H^0 and H^1 of the sheaf: the oracle row shows the
    # simplicial Betti numbers and fails, and so does every gluing row,
    # each with a shrunk counterexample
    _alter_constant_sheaf_complex(
        monkeypatch, lambda k, d: d.scale(0) if k == 0 else d)
    code, payload = run(["sheaf", "--example", "t2"], tmp_path)
    assert code == 1
    doc = json.loads(payload)
    assert row(doc, "sheaf-cohomology")["values"] == [7, 8, 1]
    assert row(doc, "simplicial-betti")["values"] == [1, 2, 1]
    assert row(doc, "simplicial-betti")["verdict"] is False
    code, payload = run(["proptest", "--seed", "0"], tmp_path)
    assert code == 1
    gluing = [r for r in json.loads(payload)["rows"]
              if r["label"].endswith(": sheaf-gluing")]
    assert gluing and all(r["verdict"] is False for r in gluing)
    for r in gluing:
        shrunk = r["values"]["counterexample"]
        assert len(shrunk["simplices"]) == 1


def _scanned_triples(cells, limit=25):
    """The first `limit` chains a < b < c by a scan of every cell triple:
    the reference for `_check_restrictions`' chains."""
    cells = sorted(cells)
    out = []
    for a in cells:
        for b in cells:
            if len(b) <= len(a) or not set(a) <= set(b):
                continue
            for c in cells:
                if len(c) > len(b) and set(b) <= set(c):
                    out.append((a, b, c))
                    if len(out) == limit:
                        return out
    return out


def _restriction_check_examples():
    """The proptest base spaces, then drawn cones, suspensions and
    products of them that the check takes (at most 120 cells)."""
    base = ["point", "interval", "s1", "s2", "t2"]
    out = list(base)
    rng = random.Random(5)
    while len(out) < 16:
        kind = rng.choice(["cone-", "suspension-", "product:"])
        name = kind + rng.choice(base)
        if kind == "product:":
            name += "," + rng.choice(base)
        if (name not in out
                and len(get_example(name).complex.cells) <= 120):
            out.append(name)
    return out


@pytest.mark.parametrize("name", _restriction_check_examples())
def test_restriction_check_reads_the_scanned_triples(name, monkeypatch):
    # the top-level restrictions the check asks for, three per chain at
    # q = 0: (a, c), then (b, c) and (a, b)
    calls, depth = [], [0]
    real = sheaves.SheafComplex.restriction

    def restriction(self, a, b, q):
        if depth[0] == 0 and q == 0:
            calls.append((tuple(a), tuple(b)))
        depth[0] += 1
        try:
            return real(self, a, b, q)
        finally:
            depth[0] -= 1

    space = get_example(name)
    want = _scanned_triples(space.complex.cells)
    monkeypatch.setattr(sheaves.SheafComplex, "restriction", restriction)
    # a space with no chain has nothing to check, and gives no row
    assert cli._check_restrictions(space) is (True if want else None)
    assert len(calls) % 3 == 0
    chains = [(a, b, c) for (a, c), (b, _c), (_a, _b)
              in zip(calls[0::3], calls[1::3], calls[2::3])]
    assert chains == want


def test_restriction_check_skips_spaces_without_a_chain():
    # below dimension 2 there is no chain a < b < c and no composition to
    # check: None, as for a space over 120 cells, so proptest prints no
    # passing row that checked nothing
    for name in ("cone-point", "suspension-point", "product:s1,point"):
        assert cli._check_restrictions(get_example(name)) is None, name
    assert cli._check_restrictions(get_example("t2")) is True


# -- input validation ------------------------------------------------------

def test_bad_input_json_pointer(tmp_path, capsys):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({
        "schema": 1, "n_vertices": 3,
        "simplices": [[0, 1], [1, "x"]],
        "filtration": {"1": []},
    }))
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "/simplices/1/1" in capsys.readouterr().err


def test_unplaced_cell_rejected(tmp_path, capsys):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({
        "schema": 1, "n_vertices": 3,
        "simplices": [[0, 1, 2]],
        "filtration": {"2": [[0, 1, 2]]},
    }))
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "/filtration" in capsys.readouterr().err


bad_simplices = pytest.mark.parametrize(
    "simplices", [[[0, 1, 5]], [[0, 0, 1]]], ids=["out-of-range", "repeated"])


def _write_space(tmp_path, simplices):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({
        "schema": 1, "n_vertices": 3, "simplices": simplices,
        "filtration": {"2": [[0, 1, 2]]},
    }))
    return p


@bad_simplices
def test_bad_simplex_points_at_simplex(tmp_path, capsys, simplices):
    p = _write_space(tmp_path, simplices)
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "'/simplices/0'" in capsys.readouterr().err


@bad_simplices
def test_bad_simplex_rejected_under_optimize(tmp_path, simplices):
    # -O strips asserts, so the input checks must not be asserts
    p = _write_space(tmp_path, simplices)
    proc = run_python("-m", "strat_ic.cli", "build", "--input", str(p))
    assert proc.returncode == 2
    assert "'/simplices/0'" in proc.stderr


empty_space_commands = pytest.mark.parametrize(
    "command", ["build", "sheaf", "intersect", "duality"])


@empty_space_commands
def test_empty_space_points_at_simplices(tmp_path, capsys, command):
    p = _write_space(tmp_path, [])
    assert cli.main([command, "--input", str(p)]) == 2
    assert "'/simplices'" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@empty_space_commands
def test_empty_space_exits_two_without_traceback(tmp_path, command, optimize):
    p = _write_space(tmp_path, [])
    proc = run_python("-m", "strat_ic.cli", command, "--input", str(p),
                      optimize=optimize)
    assert proc.returncode == 2
    assert "'/simplices'" in proc.stderr
    assert "Traceback" not in proc.stderr


bad_cells = pytest.mark.parametrize(
    "cell", [[7], [0, 0]], ids=["out-of-range", "repeated"])


def _write_filtration(tmp_path, cell):
    # a valid triangle boundary, plus one bad cell at the end of the stage
    p = tmp_path / "space.json"
    p.write_text(json.dumps({
        "schema": 1, "n_vertices": 3,
        "simplices": [[0, 1], [1, 2], [0, 2]],
        "filtration": {"1": [[0, 1], [1, 2], [0, 2], [0], [1], [2], cell]},
    }))
    return p


@bad_cells
def test_bad_filtration_cell_points_at_cell(tmp_path, capsys, cell):
    p = _write_filtration(tmp_path, cell)
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "'/filtration/1/6'" in capsys.readouterr().err


@bad_cells
def test_bad_filtration_cell_rejected_under_optimize(tmp_path, cell):
    p = _write_filtration(tmp_path, cell)
    proc = run_python("-m", "strat_ic.cli", "build", "--input", str(p))
    assert proc.returncode == 2
    assert "'/filtration/1/6'" in proc.stderr


def _write_stage_outside(tmp_path):
    # [0, 3] names two vertices of the complex but no simplex of it
    p = tmp_path / "space.json"
    p.write_text(json.dumps({
        "n_vertices": 4, "simplices": [[0, 1], [1, 2]],
        "filtration": {"0": [[1]], "1": [[0, 1], [1, 2], [0], [2], [0, 3]]},
    }))
    return p


def test_stage_cell_outside_complex_points_at_cell(tmp_path, capsys):
    p = _write_stage_outside(tmp_path)
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "'/filtration/1/4'" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_stage_cell_outside_complex_exits_two_without_traceback(tmp_path,
                                                                optimize):
    p = _write_stage_outside(tmp_path)
    proc = run_python("-m", "strat_ic.cli", "build", "--input", str(p),
                      optimize=optimize)
    assert proc.returncode == 2
    assert "'/filtration/1/4'" in proc.stderr
    assert "Traceback" not in proc.stderr


def _write_levels(tmp_path, filtration):
    # the boundary of a triangle; `filtration` is the filtration object's
    # JSON text with %s for the whole 1-skeleton
    p = tmp_path / "space.json"
    p.write_text('{"n_vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], '
                 '"filtration": %s}' % (filtration % json.dumps(
                     [[0, 1], [1, 2], [0, 2], [0], [1], [2]])))
    return p


@pytest.mark.parametrize("filtration, pointer", [
    ('{"1": %s, "0": [[0]], "0": [[2]]}', "/filtration/0"),
    ('{" 1 ": %s, "0_0": [[0]]}', "/filtration/ 1 "),
    ('{"1": %s, "0_1": [[0]]}', "/filtration/0_1"),
    ('{"01": %s}', "/filtration/01"),
    ('{"+1": %s}', "/filtration/+1"),
    ('{"1": %s, "-0": []}', "/filtration/-0"),
], ids=["twice", "spaces", "underscore", "leading-zero", "sign", "minus"])
def test_level_key_not_plain_decimal_or_repeated_is_bad_input(
        tmp_path, capsys, filtration, pointer):
    # int() reads every one of these keys as a level, and json keeps the
    # last of two equal keys; the loader refuses them all
    p = _write_levels(tmp_path, filtration)
    assert cli.main(["build", "--input", str(p)]) == 2
    assert "(at %r)" % pointer in capsys.readouterr().err
    good = _write_levels(tmp_path, '{"1": %s, "0": [[0]]}')
    assert cli.main(["build", "--input", str(good),
                     "--output", str(tmp_path / "out.json")]) == 0


def test_level_named_twice_is_bad_input_under_optimize(tmp_path):
    p = _write_levels(tmp_path, '{"1": %s, "0": [[0]], "0": [[2]]}')
    proc = run_python("-m", "strat_ic.cli", "build", "--input", str(p))
    assert proc.returncode == 2, proc.stdout
    assert "level named more than once (at '/filtration/0')" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_same_bytes_under_optimize(args, tmp_path):
    code, want = run(args, tmp_path, "plain.json")
    assert code == 0
    out = tmp_path / "optimized.json"
    proc = run_python("-m", "strat_ic.cli", *args, "--output", str(out),
                      timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == want


def test_integral_kunneth_bytes_same_under_optimize(tmp_path):
    # the Smith form certificates are raises, not asserts, so -O runs them
    # too and the report must not change
    _assert_same_bytes_under_optimize(
        ["kunneth", "--example", "product:s1,s1", "--mode", "integral"],
        tmp_path)


def test_ih_bytes_same_under_optimize(tmp_path):
    # no assert may carry work that the ih report depends on
    _assert_same_bytes_under_optimize(
        ["ih", "--example", "cone-s1", "--perversity", "lower-middle"],
        tmp_path)


def test_file_input_builds(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps({
        "schema": 1, "n_vertices": 4,
        "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "filtration": {"1": [[0, 1], [1, 2], [2, 3], [0, 3],
                             [0], [1], [2], [3]]},
    }))
    code, payload = run(["build", "--input", str(p)], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    betti = next(r for r in doc["rows"] if r["label"] == "betti")
    assert betti["values"] == [1, 1]


def test_mezzo_file_input(tmp_path, capsys):
    p = tmp_path / "mezzo.json"
    p.write_text(json.dumps({
        "schema": 1, "choices": {"7": [[1], [1]], "8": [[1], [-1]]}}))
    code, payload = run(["mezzo", "--example", "suspension-t2",
                         "--mezzo", str(p)], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert row(doc, "local-contribution-7")["verdict"] is True
    assert row(doc, "local-contribution-8")["verdict"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1,
                               "choices": {"7": [[1], ["half"]]}}))
    assert cli.main(["mezzo", "--example", "suspension-t2",
                     "--mezzo", str(bad)]) == 2
    assert "/choices/7/1/0" in capsys.readouterr().err


# cone-t2: the cone point is vertex 7 and its link T^2 has H^1 of rank 2
bad_mezzo_shapes = pytest.mark.parametrize("choices, pointer", [
    ({"7": [[1, 0], [0]]}, "'/choices/7/1'"),
    ({"7": [[1], [0], [0]]}, "'/choices/7'"),
    ({"7": [[1], [0]], "0": [[1], [0]]}, "'/choices/0'"),
    ({"7": [[1.0], [0]]}, "'/choices/7/0/0'"),
    ({"7": [[1], [True]]}, "'/choices/7/1/0'"),
    ({"7": [["1.5"], [0]]}, "'/choices/7/0/0'"),
    ({"7": [[1], ["2e0"]]}, "'/choices/7/1/0'"),
    ({"7": [["1/0"], [0]]}, "'/choices/7/0/0'"),
    ({"7": [[" 1"], [0]]}, "'/choices/7/0/0'"),
    ({"7": [["1/-2"], [0]]}, "'/choices/7/0/0'"),
    ({"7": [["1" * 5000], [0]]}, "'/choices/7/0/0'"),
    ({"7": [[1], ["1/" + "1" * 5000]]}, "'/choices/7/1/0'"),
    ({"07": [[1], [0]]}, "'/choices/07'"),
    ({"0_7": [[1], [0]]}, "'/choices/0_7'"),
    ({" 7 ": [[1], [0]]}, "'/choices/ 7 '"),
    ({"+7": [[1], [0]]}, "'/choices/+7'"),
    ({"7/0": [[1], [0]]}, "'/choices/7~10'"),
    ({"7" * 5000: [[1], [0]]}, "'/choices/%s'" % ("7" * 5000)),
    ({}, "'/choices'"),
], ids=["ragged", "wrong-row-count", "not-a-cone-point", "float", "bool",
        "decimal-string", "exponent-string", "zero-denominator",
        "padded-string", "signed-denominator", "overlong-string",
        "overlong-denominator", "leading-zero-key", "underscore-key",
        "padded-key", "signed-key", "slash-key", "overlong-key",
        "missing-vertex"])


def _write_mezzo(tmp_path, choices):
    p = tmp_path / "mezzo.json"
    p.write_text(json.dumps({"schema": 1, "choices": choices}))
    return p


@bad_mezzo_shapes
def test_bad_mezzo_shape_points_at_choice(tmp_path, capsys, choices,
                                          pointer):
    p = _write_mezzo(tmp_path, choices)
    assert cli.main(["mezzo", "--example", "cone-t2", "--mezzo",
                     str(p)]) == 2
    assert pointer in capsys.readouterr().err


@bad_mezzo_shapes
def test_bad_mezzo_shape_rejected_under_optimize(tmp_path, choices, pointer):
    p = _write_mezzo(tmp_path, choices)
    proc = run_python("-m", "strat_ic.cli", "mezzo", "--example", "cone-t2",
                      "--mezzo", str(p))
    assert proc.returncode == 2, proc.stdout
    assert pointer in proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("argv, text", [
    (["build", "--input"],
     '{"n_vertices": %s, "simplices": [], "filtration": {}}' % ("1" * 5000)),
    (["mezzo", "--example", "cone-t2", "--mezzo"],
     '{"choices": {"7": [[%s], [0]]}}' % ("1" * 5000)),
], ids=["space", "mezzo"])
def test_overlong_json_integer_is_bad_input(tmp_path, argv, text, optimize):
    # json refuses integer literals past Python's int-string limit with a
    # plain ValueError, not a JSONDecodeError
    p = tmp_path / "doc.json"
    p.write_text(text)
    proc = run_python("-m", "strat_ic.cli", *argv, str(p), optimize=optimize)
    assert proc.returncode == 2, proc.stdout
    assert "not UTF-8 JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_mezzo_vertex_named_twice_is_bad_input(tmp_path, optimize):
    # json keeps the last of two equal keys; the loader refuses both
    p = tmp_path / "mezzo.json"
    p.write_text('{"choices": {"7": [[1], [0]], "8": [[1], [0]], '
                 '"7": [[0], [1]]}}')
    proc = run_python("-m", "strat_ic.cli", "mezzo", "--example",
                      "suspension-t2", "--mezzo", str(p), optimize=optimize)
    assert proc.returncode == 2, proc.stdout
    assert "vertex named more than once (at '/choices/7')" in proc.stderr


def test_mezzo_not_lagrangian_without_dump_is_a_failed_verdict(tmp_path):
    # the whole of H^1(T^2) meets its complement in nothing: the local
    # contribution 0 is not the rank 2 of the choice
    p = _write_mezzo(tmp_path, {"7": [[1, 0], [0, 1]]})
    code, data = run(["mezzo", "--example", "cone-t2", "--mezzo", str(p)],
                     tmp_path)
    assert code == 1
    doc = json.loads(data)
    assert doc["ok"] is False
    assert row(doc, "local-contribution-7")["verdict"] is False


@pytest.mark.parametrize("spelled", [[["+2"], ["0/5"]], [["4/2"], ["-0"]]])
def test_mezzo_entries_take_signs_and_fractions(tmp_path, spelled):
    # signed integers and num/den strings spell the same Lagrangian as the
    # JSON integers 2 and 0
    reports = []
    for i, choice in enumerate(([[2], [0]], spelled)):
        p = tmp_path / ("mezzo%d.json" % i)
        p.write_text(json.dumps({"schema": 1, "choices": {"7": choice}}))
        code, data = run(["mezzo", "--example", "cone-t2", "--mezzo",
                          str(p)], tmp_path, "out%d.json" % i)
        assert code == 0
        reports.append(json.loads(data)["rows"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, label", [("duality", "pairing-0-0"),
                                            ("intersect", "numbers-0-0")])
def test_point_has_a_duality_report(tmp_path, command, label):
    # a point is a closed 0-manifold: H^0 pairs with itself to 1
    code, payload = run([command, "--example", "point"], tmp_path)
    assert code == 0
    got = row(json.loads(payload), label)["values"]
    assert got in ({"rows": 1, "cols": 1, "triples": [[0, 0, "1/1"]]},
                   [["1/1"]])


def _input_doc(name):
    """The `--input` document of a built-in example."""
    doc = cli._space_doc(get_example(name))
    stages = {}
    for cell, level in doc["levels"]:
        stages.setdefault(str(level), []).append(cell)
    return {"n_vertices": doc["n_vertices"], "simplices": doc["simplices"],
            "filtration": stages}


# a vertex alone at level 0 beside a tetrahedron at level 3
_ISOLATED_CONE_POINT = {
    "n_vertices": 5, "simplices": [[0], [1, 2, 3, 4]],
    "filtration": {"0": [[0]], "3": [
        list(c) for n in range(1, 5)
        for c in itertools.combinations(range(1, 5), n)]}}

# every documented bad-input form: argv (with {name} for the path of a file
# written from `files`: a document, or JSON text written as it stands) and
# the JSON pointer the error must carry
BAD_INPUTS = [
    (["build"], {}, "/"),
    # an option given empty is given: an unknown example, an unreadable
    # file, an unknown scenario, an unwritable path
    (["build", "--example", ""], {}, "/example"),
    (["build", "--input", ""], {}, "/"),
    (["build", "--example", "s1", "--input", "space.json"], {}, "/"),
    (["kunneth", "--example", "product:t2,s1", "--input", ""], {},
     "/example"),
    (["mezzo", "--example", "cone-t2", "--mezzo", ""], {}, "/"),
    (["reproduce", "--example", ""], {}, "/example"),
    (["build", "--example", "s1", "--output", ""], {}, "/output"),
    (["build", "--example", "nope"], {}, "/example"),
    (["build", "--example", "product:t2"], {}, "/example"),
    (["ih", "--example", "cone-s1", "--perversity", "sideways"], {},
     "/perversity"),
    (["kunneth", "--example", "t2"], {}, "/example"),
    (["kunneth", "--example", "product:t2"], {}, "/example"),
    (["kunneth", "--example", "product:"], {}, "/example"),
    (["kunneth", "--example", "product:t2,s1", "--mode", "bogus"], {},
     "/mode"),
    # two valid factors whose level-sum product breaks the frontier
    # condition
    (["build", "--example", "product:cone-point,cone-cone-interval"], {},
     "/example"),
    (["kunneth", "--example", "product:cone-point,cone-cone-interval"], {},
     "/example"),
    # the apex of a cone over a point has codimension 1, and so has the
    # end of an interval stratified as its own stratum
    (["ih", "--example", "cone-point"], {}, "/example"),
    (["derham", "--example", "cone-point"], {}, "/example"),
    # a link form needs codimension 2 at least
    (["mezzo", "--example", "cone-point"], {}, "/example"),
    (["mezzo", "--input", "{space}"],
     {"space": {"n_vertices": 2, "simplices": [[0, 1]],
                "filtration": {"0": [[0]], "1": [[0, 1], [1]]}}},
     "/filtration"),
    (["ih", "--input", "{space}"],
     {"space": {"n_vertices": 2, "simplices": [[0, 1]],
                "filtration": {"0": [[0]], "1": [[0, 1], [1]]}}},
     "/filtration"),
    (["intersect", "--example", "s2", "--degree", "7"], {}, "/degree"),
    (["intersect", "--example", "s2", "--degree", "-1"], {}, "/degree"),
    (["intersect", "--example", "cone-s1"], {}, "/example"),
    (["duality", "--example", "s2", "--degree", "9"], {}, "/degree"),
    (["duality", "--example", "cone-s1", "--degree", "9"], {}, "/degree"),
    # nonsingular spaces with boundary: their top cells admit no
    # orientation (intersect on the interval has nothing to pair)
    (["duality", "--example", "interval"], {}, "/example"),
    (["duality", "--example", "product:interval,s1"], {}, "/example"),
    (["intersect", "--example", "product:interval,s1"], {}, "/example"),
    (["duality", "--input", "{space}"],
     {"space": {"n_vertices": 3, "simplices": [[0, 1], [1, 2]],
                "filtration": {"1": [[0, 1], [1, 2], [0], [1], [2]]}}},
     "/simplices"),
    (["mezzo", "--example", "s2"], {}, "/example"),
    # a link form needs a stratum of isolated cone points with closed links
    (["mezzo", "--example", "cone-cone-t2", "--dump"], {}, "/example"),
    (["mezzo", "--example", "product:cone-t2,s1"], {}, "/example"),
    (["mezzo", "--example", "cone-cone-s1"], {}, "/example"),
    # two singular strata: a refinement needs exactly one
    (["mezzo", "--example", "cone-suspension-s1", "--dump"], {}, "/example"),
    (["mezzo", "--input", "{space}", "--dump"],
     {"space": _input_doc("cone-suspension-s1")}, "/filtration"),
    # the apex of a tetrahedron: its link, a triangle, has boundary
    (["mezzo", "--input", "{space}"],
     {"space": {"n_vertices": 4, "simplices": [[0, 1, 2, 3]],
                "filtration": {"0": [[0]], "3": [
                    list(c) for n in range(1, 5)
                    for c in itertools.combinations(range(4), n)
                    if c != (0,)]}}},
     "/filtration"),
    # the isolated cone point's link is empty: no middle cohomology to
    # choose from
    (["mezzo", "--input", "{space}"], {"space": _ISOLATED_CONE_POINT},
     "/filtration"),
    (["mezzo", "--input", "{space}", "--mezzo", "{mezzo}"],
     {"space": _ISOLATED_CONE_POINT, "mezzo": {"choices": {"0": [[1]]}}},
     "/filtration"),
    # a report path that cannot be written: a directory, a missing one
    (["build", "--example", "t2", "--output", "{out.parent}"], {"out": {}},
     "/output"),
    (["build", "--example", "t2", "--output", "{out.parent}/none/x.json"],
     {"out": {}}, "/output"),
    (["reproduce", "--example", "made-up"], {}, "/example"),
    (["proptest", "--mode", "mutate-nothing"], {}, "/mode"),
    (["build", "--input", "{space}"],
     {"space": {"n_vertices": 3, "simplices": [[0, 1], [1, "x"]],
                "filtration": {"1": []}}}, "/simplices/1/1"),
    (["mezzo", "--example", "cone-t2", "--mezzo", "{mezzo}"],
     {"mezzo": {"choices": {"7": [[1.0], [0]]}}}, "/choices/7/0/0"),
    (["mezzo", "--example", "cone-t2", "--mezzo", "{mezzo}"],
     {"mezzo": {"choices": {"7": [[1], [True]]}}}, "/choices/7/1/0"),
    (["mezzo", "--example", "suspension-t2", "--mezzo", "{mezzo}"],
     {"mezzo": {"choices": {"7": [[1], [0]], "07": [[0], [1]],
                            "8": [[1], [0]]}}}, "/choices/07"),
    (["mezzo", "--example", "suspension-t2", "--mezzo", "{mezzo}"],
     {"mezzo": {"choices": {"7": [[1], [0]]}}}, "/choices"),
    (["mezzo", "--example", "suspension-t2", "--mezzo", "{mezzo}", "--dump"],
     {"mezzo": {"choices": {"7": [[1], [0]], "8": [[1, 0], [0, 1]]}}},
     "/choices/8"),
    (["mezzo", "--example", "cone-t2", "--mezzo", "{mezzo}", "--dump"],
     {"mezzo": {"choices": {"7": [[1, 0], [0, 1]]}}}, "/choices/7"),
    # json keeps the last of two equal keys; the loaders refuse both, at
    # the root as inside it
    (["build", "--input", "{space}"],
     {"space": '{"n_vertices": 3, "simplices": [[0, 1]], '
               '"filtration": {"1": [[0, 1], [0], [1]]}, "n_vertices": 4}'},
     "/n_vertices"),
    (["mezzo", "--example", "cone-t2", "--mezzo", "{mezzo}"],
     {"mezzo": '{"choices": {"7": [[1], [0]]}, "a/b~": 1, "a/b~": 2}'},
     "/a~1b~0"),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("argv, files, pointer", BAD_INPUTS,
                         ids=["%s at %s" % (" ".join(a), p)
                              for a, _f, p in BAD_INPUTS])
def test_bad_input_exits_two_with_a_pointer(tmp_path, argv, files, pointer,
                                            optimize):
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(doc if isinstance(doc, str) else
                               json.dumps(doc))
    argv = [a.format(**paths) for a in argv]
    proc = run_python("-m", "strat_ic.cli", *argv, optimize=optimize)
    assert proc.returncode == 2, proc.stdout
    assert "(at %r)" % pointer in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("name, dims", [("suspension-s2", [1, 0, 0, 1]),
                                        ("cone-s2", [1, 0, 0, 0])])
def test_mezzo_dump_without_middle_link_cohomology(name, dims, optimize):
    # the link S^2 has no middle cohomology: the zero Lagrangian, and the
    # refined dims are the middle perversities' IH
    proc = run_python("-m", "strat_ic.cli", "mezzo", "--example", name,
                      "--dump", optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    assert row(json.loads(proc.stdout), "refined-dims")["values"] == dims


# -- golden outputs --------------------------------------------------------

def row(doc, label):
    return next(r for r in doc["rows"] if r["label"] == label)


def test_golden_ih_cone_s1(tmp_path):
    code, payload = run(["ih", "--example", "cone-s1"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["schema"] == 1
    assert row(doc, "ih-dims")["values"] == [1, 0, 0]
    assert row(doc, "support-level-0")["verdict"] is True


def test_golden_derham_stratumwise(tmp_path):
    code, payload = run(["derham", "--example", "cone-s1",
                         "--table", "stratumwise"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert row(doc, "stratumwise-total")["values"] == [2, 1, 1]
    labels = [r["label"] for r in doc["rows"]]
    assert "dimension-ladder" not in labels


def test_golden_kunneth_torus(tmp_path):
    code, payload = run(["kunneth", "--example", "product:circle,circle"],
                        tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert row(doc, "product")["values"] == [1, 2, 1]
    oracle = row(doc, "prediction")
    assert oracle["source"] == "oracle"
    assert oracle["verdict"] is True
    assert oracle["values"] == [1, 2, 1]


# sha256 of whole reports: identical input must give identical bytes across
# commits, not only within one run, so a refactor may not move a byte.  A
# deliberate change of cohomology bases moves the reports that print
# pairing matrices: lifting the bases through the unit reduction moved
# refined-duality (was e58514fe...), intersect product:t2,s1 (c50596e7...)
# and reproduce (e71af8e1...); cancelling the truncation's cone matching
# first moved refined-duality (was 7b9b4491...) and reproduce
# (87a59672...) again, each refined pairing value by a sign
GOLDEN_REPORTS = [
    (["ih", "--example", "cone-t2", "--perversity", "upper-middle"],
     "7f86f77b324b8f1609c6a1db6d50c80d8fd99f52f20341b35f8e0dda824c47af"),
    (["sheaf", "--example", "cone-s1"],
     "4d6fb17513c4e5dfe6028295717bd176df820d4c5fe595ab1dabc1137fabe399"),
    (["reproduce", "--example", "refined-duality"],
     "535aa93805f71eb685cfc18a488464f85a6b3e70eb9da894d4fb3ca95b2787c8"),
    # reports that render matrix entries and pairing values, where an int
    # in place of a Fraction would print as a bare number
    (["intersect", "--example", "t2"],
     "bfa113d50689cc5fe621e56d00842136ca84286ec31afe913c706d514bedbf21"),
    (["duality", "--example", "genus2"],
     "2efc12c58887c761c1ea41335fd6f3770b4283da4cbd4611b013b28da6e50730"),
    (["mezzo", "--example", "cone-t2", "--dump"],
     "fb0873bdebff886c2039a9957441d5836cb9937734cb75b9c36e55dfe4d90c25"),
    (["kunneth", "--example", "product:t2,s1", "--mode", "integral"],
     "f4598752e1318a0279260a5f9f03e37e42ee02bc8db206ce7ad93b46860d8008"),
    # no restriction-composition row for cone-point, which has no chain
    # a < b < c to check; with that row the digest was
    # d3238e207b78ead0a730502bebbdf2f140e0c451baa967453990416331143188
    (["proptest", "--seed", "2"],
     "4ab7fcc3d318cf4ce9adf88eeb38f4247cc57c9e6a2138e2707d6cf3980aa458"),
    # closed-manifold reports read off the orientation check and the
    # closed-stratum cohomology
    (["intersect", "--example", "product:t2,s1"],
     "38bb107f8c6573a8575a07545b2e1b01711f3650e60839d27fb31230869134d8"),
    (["kunneth", "--example", "product:t2,s1", "--mode", "stratumwise"],
     "4f5b7fe34c2d21cf3454ca2edca32daeb86cb42825b9d494df165427f4df019f"),
    (["kunneth", "--example", "product:s2,s1", "--mode", "stratumwise"],
     "397b6ac5aa7e174c91e2331b9af7da281323990b33198635e6b41d531f6cbe64"),
    (["derham", "--example", "cone-genus2"],
     "b385672bfbc3ad1aecf0b80ba8aeb629e160b20cb26bdcad0496e820b8d16ed4"),
    (["derham", "--example", "product:t2,s1"],
     "71e2f3773125b902c18455d97bf166922fc48802b42e9b44af9e9b6d3e6659a1"),
    # the genus-2 fibration row, whichever route computes the pushforward
    (["reproduce", "--example", "fibration"],
     "e25e1ceb6fb66145753b9a817fa271f30220d0d15918ed3327bd0c1ce5c0f8bd"),
    # every scenario; the Tor row is the one path through
    # FGAbelianGroup.tor.  The local-contribution scenario pairs the point
    # class of s2 with its top class, which reads both classes; its row
    # that paired the point class with itself (always 0, read before
    # either class) gave
    # db5521dbccf70614904ff326d9b596ab46457cc689b18a5c2e7090973bd47a96
    (["reproduce"],
     "88f1040eec55dd35c2b63d3faeb204e623a8edab2e22bf20df110b9004944aef"),
    (["reproduce", "--example", "tor-correction"],
     "e74d4015ad30c2ce66a2c2fd32c99fb13d2f2db1cf1645e71201d7eff98b4d30"),
    (["mezzo", "--example", "suspension-t2", "--dump"],
     "c89870caf20e14745295a0404580182ec1a40cf3dae0202762647ee0df54d058"),
    (["build", "--example", "product:genus2,t2"],
     "75bf014b68a8775e2e13578a1380dfa343ec2e5b4ec93d1c27ee3549b2cf3e75"),
    # the apex join: every cell and level of a cone, a suspension and an
    # iterated cone
    (["build", "--example", "cone-t2", "--dump"],
     "661708be06d803de5f7b989e7251ecddfceebacedeb4d8bdca3f7def11dace7d"),
    (["build", "--example", "suspension-genus2", "--dump"],
     "5b255dac9b582b667e94ce10099c57bfddf39bb793a04501c1de85cb5fc27045"),
    (["build", "--example", "cone-cone-s1", "--dump"],
     "7e0072c89eb924de0b6203c1f3743e5b901110c762facaafd28097df717d6d41"),
    # the cohomology row and the d o d row read one incidence complex
    (["sheaf", "--example", "product:t2,s1"],
     "1bf644b73a3f5f536e60ebbe735f14989263b76b4bfcc27dcffdd268870ded90"),
    # the other ih jobs of perfbench's ih-ladder list
    (["ih", "--example", "cone-s2", "--perversity", "lower-middle"],
     "ea0b80bdf3d59dfbea07465dded0dea21f48c5238083c8b7c677aa6737cd659f"),
    (["ih", "--example", "cone-t2", "--perversity", "lower-middle"],
     "e8dc489d94b81e9c69b7d92a5bd9ff5849ac7ea746acf659376d6f92fe10aa6c"),
    (["ih", "--example", "cone-genus2", "--perversity", "lower-middle"],
     "0630e8cb2479c0bd746c0ee2d90e65c15bd586c668e694d71fa65f08656bb493"),
    (["ih", "--example", "suspension-s2", "--perversity", "lower-middle"],
     "fa6ea7a7cb034968bafe90f6a74ceb208836e7469d4ac35686e8a31c3ed43052"),
    (["ih", "--example", "suspension-t2", "--perversity", "lower-middle"],
     "fcfd4f3c930001e519805fdee3040d1920b6526320448f794335b7f422fd5ca5"),
    (["ih", "--example", "cone-cone-s1", "--perversity", "lower-middle"],
     "d9aa7dca549fd881c845239980cd1a7c02b965d39c8db4fc0516fc01f95ca955"),
    (["ih", "--example", "cone-product:s1,s1",
      "--perversity", "lower-middle"],
     "d3b670bab0b5a50f2f326f50158a74637ed141b5044698c257e484cf6bdec6d5"),
    (["ih", "--example", "cone-s2", "--perversity", "upper-middle"],
     "05cd35909d351f3007e8721e8f46773071dc26a7be834c061aef7f595052c776"),
    (["ih", "--example", "suspension-s2", "--perversity", "upper-middle"],
     "90c48bffe5314623138c87ed5c5be2d03e5cbc63674abacd5f7fce3f696e1b5a"),
    (["ih", "--example", "cone-cone-s1", "--perversity", "upper-middle"],
     "248e635a3bf5ff9f21c4e58ee437ec64b7b3e55722b039cbd0d7545b60fd06dc"),
    (["ih", "--example", "cone-product:s1,s1",
      "--perversity", "upper-middle"],
     "36aea9c7a3a2ea757f5586e61186fa9da2f269808ee52de72aeba0a896f48321"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS,
                         ids=["ih-cone-t2", "sheaf-cone-s1", "refined-duality",
                              "intersect-t2", "duality-genus2",
                              "mezzo-cone-t2-dump", "kunneth-t2-s1-integral",
                              "proptest-seed-2", "intersect-t2-s1",
                              "kunneth-t2-s1-stratumwise",
                              "kunneth-s2-s1-stratumwise",
                              "derham-cone-genus2", "derham-t2-s1",
                              "reproduce-fibration", "reproduce",
                              "reproduce-tor-correction",
                              "mezzo-suspension-t2-dump",
                              "build-genus2-t2", "build-cone-t2-dump",
                              "build-suspension-genus2-dump",
                              "build-cone-cone-s1-dump", "sheaf-t2-s1",
                              "ih-cone-s2-lower", "ih-cone-t2-lower",
                              "ih-cone-genus2-lower", "ih-suspension-s2-lower",
                              "ih-suspension-t2-lower",
                              "ih-cone-cone-s1-lower",
                              "ih-cone-product-s1-s1-lower",
                              "ih-cone-s2-upper", "ih-suspension-s2-upper",
                              "ih-cone-cone-s1-upper",
                              "ih-cone-product-s1-s1-upper"])
def test_report_bytes_match_golden_digest(tmp_path, args, digest):
    code, data = run(args, tmp_path)
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == digest


def test_perversity_long_names(tmp_path):
    _, low = run(["ih", "--example", "cone-t2",
                  "--perversity", "lower-middle"], tmp_path, "a.json")
    _, up = run(["ih", "--example", "cone-t2",
                 "--perversity", "upper-middle"], tmp_path, "b.json")
    assert row(json.loads(low), "ih-dims")["values"] == [1, 0, 0, 0]
    assert row(json.loads(up), "ih-dims")["values"] == [1, 2, 0, 0]


def test_reproduce_single_scenario(tmp_path):
    code, payload = run(["reproduce", "--example", "cone-s1-table"],
                        tmp_path)
    assert code == 0
    doc = json.loads(payload)
    target = next(r for r in doc["rows"] if r["source"] == "target"
                  and not r["informational"])
    assert target["verdict"] is True
    assert target["values"] == [2, 1, 1]


def test_reproduce_unknown_scenario(capsys):
    assert cli.main(["reproduce", "--example", "made-up"]) == 2
    capsys.readouterr()


# -- formats ---------------------------------------------------------------

def test_json_is_canonical(tmp_path):
    _, payload = run(["sheaf", "--example", "s1"], tmp_path)
    doc = json.loads(payload)
    recoded = json.dumps(doc, sort_keys=True, indent=2,
                         ensure_ascii=False) + "\n"
    assert payload.decode() == recoded
    assert doc["schema"] == 1


def test_no_floats_in_reports(tmp_path):
    _, payload = run(["intersect", "--example", "t2"], tmp_path)
    doc = json.loads(payload)
    nums = row(doc, "numbers-1-1")["values"]
    assert all(isinstance(v, str) and "/" in v
               for line in nums for v in line)


def test_intersect_with_an_empty_side(tmp_path):
    # H^1 of the interval is 0: nothing to pair, so nothing is oriented
    # (the interval has boundary and would not orient)
    code, payload = run(["intersect", "--example", "interval"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert row(doc, "numbers-0-1")["values"] == [[]]


def test_csv_rfc4180(tmp_path):
    code, payload = run(["derham", "--example", "cone-s1",
                         "--format", "csv"], tmp_path, "out.csv")
    assert code == 0
    assert payload.count(b"\r\n") >= 5
    first = payload.split(b"\r\n", 1)[0]
    assert first == b"schema,command,digest,ok"


def test_text_format(capsys):
    assert cli.main(["derham", "--example", "cone-s1",
                     "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "stratumwise-total" in out
    assert "[2, 1, 1]" in out


def test_every_row_carries_provenance(tmp_path):
    for args in (["build", "--example", "cone-s1"],
                 ["ih", "--example", "cone-s1"],
                 ["proptest", "--seed", "0"]):
        _, payload = run(args, tmp_path)
        for r in json.loads(payload)["rows"]:
            assert r["source"] in ("computed", "oracle", "target")
            assert isinstance(r["informational"], bool)


# -- argument parsing ------------------------------------------------------

EVERY_OPTION = ["--example", "s1", "--input", "space.json",
                "--output", "out.json", "--format", "csv",
                "--perversity", "upper-middle", "--mezzo", "mezzo.json",
                "--mode", "integral", "--seed", "3", "--degree", "1",
                "--table", "ladder", "--dump"]
PARSED = {"example": "s1", "input_path": "space.json", "output": "out.json",
          "fmt": "csv", "perversity": "upper-middle",
          "mezzo_path": "mezzo.json", "mode": "integral", "seed": 3,
          "degree": 1, "table": "ladder", "dump": True}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_takes_every_option(command):
    # a new parser, and the one `main` shares across calls
    for parser in (cli._parser(), cli._PARSER):
        for argv in ([command] + EVERY_OPTION, EVERY_OPTION + [command]):
            args = vars(parser.parse_args(argv))
            assert args == dict(PARSED, command=command)


def test_main_builds_no_parser_and_carries_nothing_over(capsys, monkeypatch):
    # `main` parses with the parser built at import: it constructs none,
    # and after a refused argv and a chosen format each call answers as a
    # fresh interpreter does, so no option value reaches the next call
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__",
                        counting_init)
    calls = (["build", "--example", "s1", "--dump", "--format", "xml"],
             ["build", "--example", "s1", "--format", "csv"],
             ["build", "--example", "s1"])
    codes = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        for optimize in (False, True):
            proc = run_python("-m", "strat_ic.cli", *argv, optimize=optimize,
                              text=False)
            assert (code, out, err) == (proc.returncode,
                                        proc.stdout.decode("utf-8"),
                                        proc.stderr.decode("utf-8"))
    assert built == []
    assert codes == [2, 0, 0]


bad_argv = pytest.mark.parametrize(
    "argv", [["nope", "--example", "s1"],
             ["build", "--example", "s1", "--format", "xml"],
             ["derham", "--example", "s1", "--table", "foo"], []],
    ids=["unknown-command", "bad-format", "bad-table", "no-command"])


@bad_argv
def test_bad_arguments_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: strat-ic" in capsys.readouterr().err


@bad_argv
def test_bad_arguments_exit_two_under_optimize(argv):
    proc = run_python("-m", "strat_ic.cli", *argv)
    assert proc.returncode == 2
    assert "usage: strat-ic" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- console entry point ---------------------------------------------------

def test_console_script_runs():
    proc = run_python("-m", "strat_ic.cli", "ih", "--example", "cone-s1",
                      "--format", "text", optimize=False)
    assert proc.returncode == 0
    assert "ih-dims" in proc.stdout


def test_report_row_source_is_checked_under_optimize():
    # a row's source is one of three labels; anything else is a ValueError,
    # a typed raise that -O keeps
    code = "\n".join([
        "from strat_ic.cli import ReportBundle",
        "bundle = ReportBundle('ih', 'digest')",
        "for source in ('oracle', 'guess'):",
        "    try:",
        "        bundle.add('row', [1], source=source)",
        "        print('accepted', len(bundle.rows))",
        "    except ValueError as e:",
        "        print('rejected:', e)",
    ])
    for optimize in (False, True):
        proc = run_python("-c", code, optimize=optimize)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "accepted 1",
            "rejected: row source 'guess' not one of computed, oracle, "
            "target"]
