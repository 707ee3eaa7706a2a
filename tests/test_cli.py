import functools
import gzip
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from hoq import LabeledOperator, NetworkSpec, SystemRegistry, compose_network, dual, processes
from hoq.cli import main
from hoq.linalg import TOL_PSD, permute_systems
from hoq.membership import sample_deterministic
from hoq.serialize import (
    DEFAULT_DIM_CAP,
    Config,
    bundle_to_dict,
    operator_to_dict,
    parse_config,
    parse_inline_registry,
    read_bundle,
    read_operator,
    read_spec,
    write_bundle,
    write_operator,
)
from hoq.typesys import MAX_RECURSION_LIMIT, BistochElem, dehat, parse_type, print_type
from hoq.errors import (ConfigError, HoqError, NonFiniteOperator, RecursionLimit,
                        ShapeMismatch, SizeLimit)

from helpers import NON_FINITE, converted, non_finite_operator


@pytest.fixture
def runner():
    return CliRunner()


REG_FLIP = "A=2,B=2,P=4,F=4"
FLIP_TYPE = "((^A -> ^B) -> (P -> F))"


@pytest.fixture
def max_dim_16(tmp_path):
    """A config file that sets ``limits.max_dim = 16``."""
    cfg = tmp_path / "max_dim_16.cfg"
    cfg.write_text("limits.max_dim = 16\n")
    return str(cfg)


def _skewed(op):
    """``op`` plus 1e-8 i at (0, 1) and (1, 0): an anti-Hermitian part with
    hermiticity defect 2e-8, which leaves the Hermitian part unchanged."""
    data = op.data.astype(complex)
    data[0, 1] += 1e-8j
    data[1, 0] += 1e-8j
    return LabeledOperator(op.factors, data)


def _skewed_flip_files(tmp_path):
    """The time flip, in P A B F order, plus 1e-8 i at (0, 1) and (1, 0).

    The added part is anti-Hermitian: the Hermitian part is the flip's and
    the hermiticity defect is 2e-8.  Also writes the flip's one-slot network
    spec and a config with tol.herm = 1e-6.
    """
    from hoq.processes import time_flip_merged

    flip = permute_systems(time_flip_merged(2), ["P", "A", "B", "F"])
    files = {"op": tmp_path / "skewed.json", "spec": tmp_path / "spec.json",
             "config": tmp_path / "hoq.cfg"}
    write_operator(_skewed(flip), str(files["op"]))
    files["spec"].write_text(json.dumps({"slot_types": ["((^A -> ^B) -> I)"],
                                         "memories": ["P", "F"]}))
    files["config"].write_text("tol.herm = 1e-6\n")
    return {k: str(v) for k, v in files.items()}


# every command that reads operator, spec or bundle files, with placeholders
# for the files of _command_files
READING_COMMANDS = pytest.mark.parametrize("args", [
    ["check", "(^A -> ^B)", "-f", "{op}"],
    ["check", "--network-spec", "{spec}", "-f", "{op}"],
    ["check", "(^A -> ^B)", "-f", "{op}", "--admissible"],
    ["classify", "(^A -> ^B)", "-f", "{op}"],
    ["apply-flip", "--channel", "{op}", "--state", "{op}", "--control", "{op}",
     "-o", "{out}"],
    ["compose", "{bundle}", "-o", "{out}"],
    ["decompose", "--spec", "{spec}", "-f", "{op}", "-o", "{out}"],
], ids=["check", "check-spec", "check-admissible", "classify", "apply-flip",
        "compose", "decompose"])


def _command_files(tmp_path, op, suffix=".json"):
    """Paths of ``op`` written as an operator file and as a one-block bundle,
    of the bundle's one-slot spec file, and of an output file."""
    spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("I", "I"))
    files = {k: str(tmp_path / f"{k}{suffix}") for k in ("op", "spec", "bundle", "out")}
    write_operator(op, files["op"])
    write_bundle([op], spec, files["bundle"])
    opener = gzip.open if suffix.endswith(".gz") else open
    with opener(files["spec"], "wt", encoding="utf-8") as fh:
        json.dump(bundle_to_dict([], spec)["spec"], fh)
    return files


# an array nested far deeper than Python's recursion limit
DEEP = "[" * 100000 + "]" * 100000


def _deep_files(tmp_path, where):
    """The files of _command_files with DEEP in one place of each: the
    operator's matrix (``where="matrix"``) or its factors (``where="top"``, a
    value at the top level of its object), the spec's slot types, and the
    bundle's one block, which is that operator."""
    files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2))
    op = ('{"factors": ' + DEEP + ', "matrix": [[[1, 0]]]}' if where == "top"
          else '{"factors": [["A", 2], ["B", 2]], "matrix": ' + DEEP + "}")
    texts = {"op": op, "spec": '{"slot_types": ' + DEEP + ', "memories": ["I", "I"]}',
             "bundle": '{"blocks": [' + op + '], "spec": {"slot_types": [], "memories": []}}'}
    for name, text in texts.items():
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return files


class TestSerialization:
    def test_operator_roundtrip(self, tmp_path, rng):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        op = LabeledOperator((("A", 2), ("B", 3)), g)
        path = tmp_path / "op.json"
        write_operator(op, str(path))
        back = read_operator(str(path))
        assert back.factors == op.factors
        assert np.array_equal(back.data, op.data)  # exact float round trip

    def test_gzip_container(self, tmp_path, rng):
        op = LabeledOperator((("A", 2),), np.eye(2) / 3)
        path = tmp_path / "op.json.gz"
        write_operator(op, str(path))
        with gzip.open(path, "rt") as fh:
            payload = json.load(fh)
        assert payload["factors"] == [["A", 2]]
        assert np.array_equal(read_operator(str(path)).data, op.data)

    def test_dict_shapes(self, tmp_path):
        op = LabeledOperator((("A", 2),), np.array([[1, 2j], [-2j, 0.5]]))
        payload = operator_to_dict(op)
        assert payload["matrix"][0][1] == [0.0, 2.0]
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        assert np.array_equal(read_operator(str(path)).data, op.data)

    @pytest.mark.parametrize("name", ["op.json", "op.json.gz"])
    def test_files_are_json_dumps_of_the_dicts(self, tmp_path, rng, name):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g[0, :4] = [complex(-0.0, 1e-300), complex(1e300, np.nan),
                    complex(np.inf, -np.inf), complex(0.1, -0.0)]
        op = LabeledOperator((("A", 2), ("B", 3)), g)
        one = LabeledOperator((), np.eye(1))
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("P", "F"))

        def text(path):
            opener = gzip.open if name.endswith(".gz") else open
            with opener(path, "rt", encoding="utf-8") as fh:
                return fh.read()

        path = tmp_path / name
        for x in (op, one):
            write_operator(x, str(path))
            assert text(path) == json.dumps(operator_to_dict(x)) + "\n"
        for blocks in ([], [op], [op, one]):
            write_bundle(blocks, spec, str(path))
            assert text(path) == json.dumps(bundle_to_dict(blocks, spec)) + "\n"

    @pytest.mark.parametrize("name", ["op.json", "op.json.gz"])
    def test_real_matrix_writes_the_bytes_of_its_complex_twin(self, tmp_path, rng, name):
        data = rng.normal(size=(6, 6))
        data[0, :2] = [-0.0, 1e-300]
        real = LabeledOperator((("A", 2), ("B", 3)), data)
        # the twin's imaginary parts are all zero, so it is float64 from construction
        twin = LabeledOperator(real.factors, data.astype(complex))
        assert real.data.dtype == twin.data.dtype == np.float64
        assert twin.data.tobytes() == real.data.tobytes()
        written = []
        for x, sub in ((real, "real"), (twin, "twin")):
            path = tmp_path / sub / name
            path.parent.mkdir()
            write_operator(x, str(path))
            raw = path.read_bytes()
            # bytes 4-7 of a gzip header are its time stamp
            written.append(raw[:4] + raw[8:] if name.endswith(".gz") else raw)
        assert written[0] == written[1]

    @pytest.mark.parametrize("dim,n", [(2.7, 2), ("2", 2), (True, 1), (0, 1), (-2, 1)], ids=repr)
    def test_non_integer_factor_dimension(self, runner, tmp_path, dim, n):
        payload = operator_to_dict(LabeledOperator((("A", n),), np.eye(n) / n))
        payload["factors"] = [["A", dim]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ShapeMismatch, match="not an integer"):
            read_operator(str(path))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", f"A={n}"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "not an integer" in res.output

    def test_write_streams_rows(self, tmp_path, rng):
        d = 256
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # a real matrix is written as plain numbers, a complex one as pairs,
        # both row by row, not whole
        for data in (g, g.real):
            op = LabeledOperator((("A", d),), data)
            tracemalloc.start()
            try:
                write_operator(op, str(tmp_path / "op.json"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < op.data.nbytes

    def test_read_streams_rows(self, tmp_path, rng):
        d = 256
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = LabeledOperator((("A", d),), g)
        path = tmp_path / "op.json"
        write_operator(op, str(path))
        tracemalloc.start()
        try:
            back = read_operator(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text, 2.7 times the operator here, is read whole; a json.load of
        # the whole document peaked at 12 times
        assert peak < 6 * op.data.nbytes
        assert np.array_equal(back.data, op.data)

    def test_real_read_streams_rows(self, tmp_path, rng):
        d = 256
        op = LabeledOperator((("A", d),), rng.normal(size=(d, d)))
        path = tmp_path / "op.json"
        write_operator(op, str(path))
        tracemalloc.start()
        try:
            back = read_operator(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rows of plain numbers go straight into one float64 array; the text,
        # 2.6 times the real operator here, is read whole, and the peak was
        # 5.2 times it
        assert peak < 6 * op.data.nbytes
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == op.data.tobytes()

    @pytest.mark.parametrize("name", ["op.json", "op.json.gz"])
    @pytest.mark.parametrize("layout", ["written", "indented", "matrix-first"])
    def test_read_matches_the_parsed_payload(self, tmp_path, rng, name, layout):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g[0, :2] = [complex(-0.0, 1e-300), complex(1e300, -0.0)]
        op = LabeledOperator((("A", 2), ("B", 3)), g)
        payload = operator_to_dict(op)
        payload["matrix"][1][2] = [3, -2 ** 64]  # integers read as floats, beyond int64 too
        if layout == "matrix-first":
            payload = {"matrix": payload["matrix"], "factors": payload["factors"]}
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("I", "I"))
        bundle = {"blocks": [payload, operator_to_dict(LabeledOperator((), np.eye(1)))],
                  "spec": bundle_to_dict([], spec)["spec"]}
        indent = 2 if layout == "indented" else None
        opener = gzip.open if name.endswith(".gz") else open
        reg = SystemRegistry.of(A=2, B=2)
        path = str(tmp_path / name)
        for doc in (payload, bundle):
            text = json.dumps(doc, indent=indent)
            with opener(path, "wt", encoding="utf-8") as fh:
                fh.write(text)
            if doc is payload:
                got, want = [read_operator(path)], [json.loads(text)]
            else:
                got, want = read_bundle(path, reg)[0], json.loads(text)["blocks"]
            assert [(x.factors, x.data.tobytes()) for x in got] == [converted(w) for w in want]

    @pytest.mark.parametrize("matrix", [
        [[[1, 0], [0, 0]], [[0, 0]]],
        [[[1, 2, 3], [0, 0, 0]], [[0, 0, 0], [1, 2, 3]]],
        [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        [[[None, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[1, 2]],
        # numpy coerces a boolean beside a number
        [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ], ids=["ragged", "triple", "strings", "null", "2-d", "bool-int", "bool-float"])
    def test_malformed_matrix(self, runner, tmp_path, matrix):
        payload = {"factors": [["A", 2]], "matrix": matrix}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "malformed operator payload" in res.output
        with pytest.raises(ShapeMismatch):
            read_operator(str(path))
        # the same matrix as a bundle block
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("I", "I"))
        bundle = {"blocks": [payload], "spec": bundle_to_dict([], spec)["spec"]}
        path.write_text(json.dumps(bundle))
        with pytest.raises(ShapeMismatch):
            read_bundle(str(path), SystemRegistry.of(A=2, B=2))
        res = runner.invoke(main, ["compose", str(path), "-o", str(tmp_path / "out.json"),
                                   "--registry", "A=2,B=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "malformed operator payload" in res.output

    @pytest.mark.parametrize("kind", ["operator", "bundle"])
    def test_truncated_or_trailing_text(self, runner, tmp_path, kind):
        op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        files = _command_files(tmp_path, op)
        reg = SystemRegistry.of(A=2, B=2)
        if kind == "operator":
            path, args = files["op"], ["check", "(^A -> ^B)", "-f", files["op"]]
            read = functools.partial(read_operator, path)
        else:
            path, args = files["bundle"], ["compose", files["bundle"], "-o", files["out"]]
            read = functools.partial(read_bundle, path, reg)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().rstrip("\n")
        cut = [text[:n] for n in (1, 9, len(text) // 3, len(text) // 2, len(text) - 2,
                                  len(text) - 1)]
        for bad in cut + [text + "]", text + " {}", text + "x"]:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(bad)
            with pytest.raises((ShapeMismatch, json.JSONDecodeError)):
                read()
            res = runner.invoke(main, args + ["--registry", "A=2,B=2"])
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output

    @pytest.mark.parametrize("text", ["[]", "1", '"x"', "null", DEEP],
                             ids=["list", "number", "string", "null", "deep-list"])
    @pytest.mark.parametrize("kind", ["operator", "bundle", "block"])
    def test_non_object_document(self, runner, tmp_path, kind, text):
        # as the whole file, or as the one block of a bundle
        spec = '"spec": {"slot_types": ["(^A -> ^B)"], "memories": ["I", "I"]}'
        path, out = tmp_path / f"{kind}.json", tmp_path / "out.json"
        path.write_text('{"blocks": [' + text + "], " + spec + "}" if kind == "block" else text)
        if kind == "operator":
            args = ["check", "(^A -> ^B)", "-f", str(path)]
            read = functools.partial(read_operator, str(path))
        else:
            args = ["compose", str(path), "-o", str(out)]
            read = functools.partial(read_bundle, str(path), SystemRegistry.of(A=2, B=2))
        payload = "bundle" if kind == "bundle" else "operator"
        with pytest.raises(ShapeMismatch, match=f"malformed {payload} payload: not a JSON object"):
            read()
        res = runner.invoke(main, args + ["--registry", "A=2,B=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert f"error: malformed {payload} payload" in res.output
        assert not out.exists()

    # an integer beyond float range reads as infinity, as 1e400 does
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400", "huge-int"])
    def test_non_finite_entries_stop_the_read(self, tmp_path, literal):
        path = tmp_path / "op.json"
        path.write_text('{"factors": [["A", 2]], "matrix": [[[1, 0], [0, 0]], '
                        f'[[0, 0], [0, {literal}]]]}}')
        with pytest.raises(NonFiniteOperator, match="non-finite entry in row 1"):
            read_operator(str(path))

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_a_hoq_error(self, tmp_path, damage):
        op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        files = _command_files(tmp_path, op, ".json.gz")
        for name in ("op", "spec", "bundle"):
            with gzip.open(files[name], "rb") as fh:
                raw = gzip.compress(fh.read())
            # cut in the compressed data, or a first block of the reserved
            # type 3 right after the 10-byte header
            raw = raw[:len(raw) // 2] if damage == "truncated" else raw[:10] + b"\xff" + raw[11:]
            with open(files[name], "wb") as fh:
                fh.write(raw)
        reg = SystemRegistry.of(A=2, B=2)
        for read in (lambda: read_operator(files["op"]), lambda: read_spec(files["spec"], reg),
                     lambda: read_bundle(files["bundle"], reg)):
            with pytest.raises(HoqError):
                read()

    @pytest.mark.parametrize("where", ["matrix", "top"])
    def test_deep_json_is_a_hoq_error(self, tmp_path, where):
        files = _deep_files(tmp_path, where)
        reg = SystemRegistry.of(A=2, B=2)
        for read in (lambda: read_operator(files["op"]), lambda: read_spec(files["spec"], reg),
                     lambda: read_bundle(files["bundle"], reg)):
            with pytest.raises(HoqError, match="JSON nested too deeply"):
                read()

    @pytest.mark.parametrize("spec", [
        {"memories": ["I", "I"]},
        {"memories": ["I", "I"], "slot_types": 3},
        {"memories": ["I", "I"], "slot_types": [3]},
        {"memories": "II", "slot_types": ["((^A -> ^B) -> I)"]},
        {"memories": ["I", "I"], "slot_types": "I"},
        {"memories": {"I": 1, "J": 2}, "slot_types": ["((^A -> ^B) -> I)"]},
        {"memories": ["I", 1], "slot_types": ["((^A -> ^B) -> I)"]},
    ], ids=["no-slot-types", "not-a-list", "not-a-string", "memories-string",
            "slot-types-string", "memories-object", "memories-number"])
    def test_malformed_bundle_spec(self, runner, tmp_path, spec):
        # a bundle's spec is parsed as a network spec file is: each field is a
        # JSON array of strings, and nothing else is iterated into one
        files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2))
        reg = SystemRegistry.of(A=2, B=2)
        with open(files["bundle"], encoding="utf-8") as fh:
            bundle = json.load(fh)
        bundle["spec"] = spec
        with open(files["bundle"], "w", encoding="utf-8") as fh:
            json.dump(bundle, fh)
        with open(files["spec"], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with pytest.raises(ShapeMismatch, match="malformed network spec"):
            read_bundle(files["bundle"], reg)
        with pytest.raises(ShapeMismatch, match="malformed network spec"):
            read_spec(files["spec"], reg)
        for args in (["check", "--network-spec", files["spec"], "-f", files["op"]],
                     ["compose", files["bundle"], "-o", files["out"]]):
            res = runner.invoke(main, args + ["--registry", "A=2,B=2"])
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
            assert "error: malformed network spec" in res.output

    def test_spec_without_slots_is_a_shape_mismatch(self, runner, tmp_path):
        files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2))
        spec = {"slot_types": [], "memories": ["I"]}
        with open(files["bundle"], encoding="utf-8") as fh:
            bundle = json.load(fh)
        bundle["spec"] = spec
        with open(files["bundle"], "w", encoding="utf-8") as fh:
            json.dump(bundle, fh)
        with open(files["spec"], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        reg = SystemRegistry.of(A=2, B=2)
        with pytest.raises(ShapeMismatch, match="at least one slot"):
            read_spec(files["spec"], reg)
        with pytest.raises(ShapeMismatch, match="at least one slot"):
            read_bundle(files["bundle"], reg)
        for args in (["check", "--network-spec", files["spec"], "-f", files["op"]],
                     ["compose", files["bundle"], "-o", files["out"]]):
            res = runner.invoke(main, args + ["--registry", "A=2,B=2"])
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
            assert "at least one slot" in res.output

    def test_bundle_takes_the_recursion_limit(self, tmp_path):
        op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("I", "I"))
        path = str(tmp_path / "bundle.json")
        write_bundle([op], spec, path)
        reg = SystemRegistry.of(A=2, B=2)
        assert read_bundle(path, reg)[1] == spec
        with pytest.raises(RecursionLimit, match="exceeds limit 0"):
            read_bundle(path, reg, limit=0)

    def test_bundle_memory_takes_the_first_block_that_names_it(self, tmp_path):
        # "M" is not registered: its dimension comes from the blocks' factors,
        # and the first block that names it wins over a later one
        blocks = [LabeledOperator((("A", 2), ("M", 3)), np.eye(6) / 2),
                  LabeledOperator((("M", 2), ("B", 2)), np.eye(4) / 2)]
        spec = {"slot_types": ["(^A -> ^B)"] * 2, "memories": ["I", "M", "I"]}
        path = str(tmp_path / "bundle.json")
        for order, dim in ((blocks, 3), (blocks[::-1], 2)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"blocks": [operator_to_dict(b) for b in order], "spec": spec}, fh)
            assert read_bundle(path, SystemRegistry.of(A=2, B=2))[2].dim("M") == dim

    def test_max_dim_on_read(self, tmp_path):
        op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("I", "I"))
        path, bundle = tmp_path / "op.json", tmp_path / "bundle.json"
        write_operator(op, str(path))
        write_bundle([op], spec, str(bundle))
        assert read_operator(str(path)).dim == 4
        assert read_operator(str(path), max_dim=4).dim == 4
        with pytest.raises(SizeLimit, match="dimension 4 exceeds limits.max_dim = 3"):
            read_operator(str(path), max_dim=3)
        reg = SystemRegistry.of(A=2, B=2)
        assert len(read_bundle(str(bundle), reg, max_dim=4)[0]) == 1
        with pytest.raises(SizeLimit):
            read_bundle(str(bundle), reg, max_dim=3)
        # a matrix before its factors is sized by its first row: the bad fifth
        # row is reached when the four-dimensional matrix fits
        payload = operator_to_dict(op)
        path.write_text(json.dumps({"matrix": payload["matrix"] + [["x"]],
                                    "factors": payload["factors"]}))
        for max_dim in (5, 4):
            with pytest.raises(ShapeMismatch, match="got row 4 of shape"):
                read_operator(str(path), max_dim=max_dim)
        with pytest.raises(SizeLimit, match="operator dimension 4 exceeds limits.max_dim = 3"):
            read_operator(str(path), max_dim=3)
        path.write_text(json.dumps({"matrix": payload["matrix"],
                                    "factors": payload["factors"]}))
        assert np.array_equal(read_operator(str(path), max_dim=4).data, op.data)
        with pytest.raises(SizeLimit, match="operator dimension 4 exceeds limits.max_dim = 3"):
            read_operator(str(path), max_dim=3)

    @pytest.mark.parametrize("text", [
        '{"factors": [["A", 1000]], "matrix": [[[1, 0]]]}',
        '{"factors": [["A", 1000]], "matrix": []}',
        '{"matrix": [[' + ", ".join(["[0, 0]"] * 1000) + ']], "factors": [["A", 1000]]}',
    ], ids=["factors-first", "no-rows", "matrix-first"])
    def test_header_claiming_more_than_the_file_holds(self, runner, tmp_path, text):
        # 10^6 entries claimed by the factors or by the first row, in a few kB
        path = tmp_path / "op.json"
        path.write_text(text)
        with pytest.raises(ShapeMismatch, match="dimension 1000 needs 1000000 entries"):
            read_operator(str(path))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=1000"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "malformed operator payload" in res.output

    def test_config_parsing(self):
        cfg = parse_config("""
# comment
registry.A = 2
registry.B = 2
tol.psd = 1e-8
limits.max_iter = 99
""")
        assert cfg.registry.dim("A") == 2
        assert cfg.tol_psd == 1e-8
        assert cfg.max_iter == 99
        with pytest.raises(ConfigError):
            parse_config("nonsense.key = 3")
        with pytest.raises(ConfigError):
            parse_config("tol.wat = 1")
        with pytest.raises(ConfigError):
            parse_config("just a line")
        # the least values allowed
        cfg = parse_config("tol.psd = 0\ntol.herm = 0\nlimits.max_iter = 1\n"
                           "limits.max_dim = 1\nlimits.recursion = 0\n")
        assert (cfg.tol_psd, cfg.tol_herm, cfg.max_iter, cfg.max_dim, cfg.recursion) == \
            (0.0, 0.0, 1, 1, 0)

    def test_read_spec_plain_and_gz(self, runner, tmp_path):
        from hoq.processes import time_flip_merged

        reg = SystemRegistry.of(A=2, B=2, P=4, F=4)
        spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("P", "F"))
        text = json.dumps(bundle_to_dict([], spec)["spec"])
        (tmp_path / "spec.json").write_text(text)
        with gzip.open(tmp_path / "spec.json.gz", "wt", encoding="utf-8") as fh:
            fh.write(text)
        op = tmp_path / "flip.json"
        write_operator(time_flip_merged(2), str(op))
        for name in ("spec.json", "spec.json.gz"):
            assert read_spec(str(tmp_path / name), reg) == spec
            res = runner.invoke(main, ["check", "--network-spec", str(tmp_path / name),
                                       "-f", str(op), "--registry", REG_FLIP])
            assert res.exit_code == 0, res.output

    def test_inline_registry(self):
        assert parse_inline_registry("A=2, B=3") == {"A": 2, "B": 3}
        with pytest.raises(ConfigError):
            parse_inline_registry("A:2")

    def test_registry_label_given_twice(self, runner, tmp_path):
        # a repeated label must repeat its dimension, as SystemRegistry demands
        assert parse_inline_registry("A=2,B=3,A=2") == {"A": 2, "B": 3}
        assert parse_config("registry.A = 2\nregistry.A = 2\n").registry.dim("A") == 2
        with pytest.raises(ConfigError, match="registry label 'A' given as 2 and as 3"):
            parse_inline_registry("A=2,A=3")
        with pytest.raises(ConfigError, match="line 2: registry label 'A' given as 2 and as 3"):
            parse_config("registry.A = 2\nregistry.A = 3\n")
        res = runner.invoke(main, ["lambda", "A", "--registry", "A=2,A=3"])
        assert res.exit_code == 2 and "'A'" in res.output
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("registry.A = 2\nregistry.A = 3\n")
        res = runner.invoke(main, ["lambda", "A", "--config", str(cfg)])
        assert res.exit_code == 2 and "'A'" in res.output


class TestLambdaDelta:
    def test_lambda_pair(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--registry", "A=2,B=2"])
        assert res.exit_code == 0 and res.output.strip() == "1/2"

    def test_lambda_flip_type(self, runner):
        res = runner.invoke(main, ["lambda", "((^A -> ^B) -> (P -> F))",
                                   "--registry", REG_FLIP])
        assert res.output.strip() == "1/8"

    def test_delta_pair(self, runner):
        res = runner.invoke(main, ["delta", "(^A -> ^B)", "--registry", "A=2,B=2"])
        assert res.output.split("\n")[0] == "A:T B:T"

    def test_delta_dual_pair(self, runner):
        res = runner.invoke(main, ["delta", "((^A -> ^B) -> I)",
                                   "--registry", "A=2,B=2"])
        assert res.output.strip().split("\n") == ["A:T B:I", "A:I B:T"]

    def test_delta_standard_hierarchy_dehats(self, runner):
        res = runner.invoke(main, ["delta", "(^A -> ^B)", "--registry", "A=2,B=2",
                                   "--hierarchy", "standard"])
        assert res.output.strip().split("\n") == ["A:T B:T", "A:I B:T"]

    @pytest.mark.parametrize("command", ["lambda", "delta"])
    def test_nesting_up_to_the_recursion_cap(self, runner, tmp_path, command):
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text(f"limits.recursion = {MAX_RECURSION_LIMIT}\n")

        def nested(depth):
            return "(" * depth + "I" + " -> I)" * depth

        res = runner.invoke(main, [command, nested(MAX_RECURSION_LIMIT), "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [command, nested(MAX_RECURSION_LIMIT + 1),
                                   "--config", str(cfg)])
        assert res.exit_code == 2 and "exceeds limit" in res.output

    def test_delta_refuses_more_patterns_than_max_dim(self, runner, tmp_path):
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("limits.max_dim = 16\n")
        common = ["--registry", "A=2,B=2,C=2,D=2,E=2", "--config", str(cfg)]
        res = runner.invoke(main, ["delta", "(A B -> C D)"] + common)
        assert res.exit_code == 0 and len(res.output.split("\n")) > 1
        res = runner.invoke(main, ["delta", "(A B -> C D E)"] + common)
        assert res.exit_code == 2
        assert "5 systems: 2^5 sector patterns exceed limits.max_dim = 16" in res.output
        # the coefficient needs no patterns
        res = runner.invoke(main, ["lambda", "(A B -> C D E)"] + common)
        assert res.exit_code == 0 and res.output.strip() == "1/8"

    def test_parse_error_exit_2(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ", "--registry", "A=2"])
        assert res.exit_code == 2

    def test_unknown_system_exit_2(self, runner):
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--registry", "A=2"])
        assert res.exit_code == 2


class TestCheckCommand:
    def test_flip_passes_and_fails_standard(self, runner, tmp_path):
        out = tmp_path / "flip.json"
        res = runner.invoke(main, ["make", "time-flip", "--d", "2", "-o", str(out)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["check", "((^A -> ^B) -> (P -> F))",
                                   "-f", str(out), "--registry", REG_FLIP])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["check", "((^A -> ^B) -> (P -> F))",
                                   "-f", str(out), "--registry", REG_FLIP,
                                   "--hierarchy", "standard", "--json"])
        assert res.exit_code == 1
        payload = json.loads(res.output)
        pats = [p for p, _ in payload["forbidden_components"]]
        assert pats and all("A:I" in p and "B:T" in p and "F:I" in p for p in pats)

    @pytest.mark.parametrize("recursion, depth, check_code", [(256, 65, 1), (0, 64, 2)])
    def test_spec_files_follow_limits_recursion(self, runner, tmp_path, recursion, depth,
                                                check_code):
        # one slot, A nested ``depth`` deep; the state is not PSD, so every
        # command that gets past parsing fails on the operator instead
        op = LabeledOperator((("A", 2),), np.diag([1.5, -0.5]))
        spec = {"slot_types": ["(" * depth + "A" + " -> I)" * depth], "memories": ["I", "I"]}
        files = {name: tmp_path / name for name in ("spec.json", "bundle.json", "op.json",
                                                    "out.json", "hoq.cfg")}
        files["spec.json"].write_text(json.dumps(spec))
        files["bundle.json"].write_text(json.dumps({"blocks": [operator_to_dict(op)],
                                                    "spec": spec}))
        write_operator(op, str(files["op.json"]))
        files["hoq.cfg"].write_text(f"registry.A = 2\nlimits.recursion = {recursion}\n")
        paths = {name: str(path) for name, path in files.items()}
        too_deep = recursion < depth
        for args, code in [
                (["check", "--network-spec", paths["spec.json"], "-f", paths["op.json"]],
                 check_code),
                (["decompose", "--spec", paths["spec.json"], "-f", paths["op.json"],
                  "-o", paths["out.json"]], 2),
                (["compose", paths["bundle.json"], "-o", paths["out.json"]], 2)]:
            res = runner.invoke(main, args + ["--config", paths["hoq.cfg"]])
            assert res.exit_code == code, res.output
            assert ("exceeds limit" in res.output) == too_deep, res.output

    @pytest.mark.parametrize("args", [["delta"], ["check"], ["check", "--json"],
                                      ["check", "--admissible"]])
    @pytest.mark.parametrize("type_text", [FLIP_TYPE, "((^A -> ^B) -> I)"])
    def test_standard_hierarchy_is_the_dehatted_type(self, runner, tmp_path, args,
                                                     type_text):
        from hoq.processes import time_flip_merged

        reg = SystemRegistry.of(A=2, B=2, P=4, F=4)
        t = parse_type(type_text, reg)
        # the flip fails the ordinary hierarchy; a sampled ordinary event passes
        op = time_flip_merged(2) if type_text == FLIP_TYPE else \
            sample_deterministic(dehat(t), reg, seed=1)
        write_operator(op, str(tmp_path / "op.json"))
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("limits.max_iter = 50\n")
        tail = ["--registry", REG_FLIP, "--config", str(cfg)]
        if args[0] == "check":
            tail += ["-f", str(tmp_path / "op.json")]
        std = runner.invoke(main, args + [type_text, "--hierarchy", "standard"] + tail)
        flat = runner.invoke(main, args + [print_type(dehat(t))] + tail)
        assert std.exit_code == flat.exit_code and std.exit_code != 2, std.output
        assert std.output == flat.output

    def test_empty_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        res = runner.invoke(main, ["check", "A", "-f", str(bad), "--registry", "A=2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_non_finite_operator_exit_2(self, runner, tmp_path, where):
        path = tmp_path / "bad.json"
        write_operator(non_finite_operator(where), str(path))
        res = runner.invoke(main, ["check", "(^A -> ^B)", "-f", str(path),
                                   "--registry", "A=2,B=2"])
        assert res.exit_code == 2
        assert "non-finite" in res.output

    def test_overflowing_hermiticity_defect_exit_2(self, runner, tmp_path):
        path = tmp_path / "skew.json"
        write_operator(LabeledOperator((("A", 2),), np.array([[1.0, 1e308], [-1e308, 1.0]])),
                       str(path))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=2"])
        assert res.exit_code == 2
        assert "overflows float64" in res.output

    @pytest.mark.parametrize("line", [
        "tol.psd = nan", "tol.psd = inf", "tol.psd = -1e-9", "tol.herm = -1",
        "tol.herm = nan", "tol.sector = nan", "tol.sector = -inf", "tol.feas = 1e400",
        "limits.max_iter = -5", "limits.max_iter = 0", "limits.max_dim = 0",
        "limits.recursion = -1", f"limits.recursion = {MAX_RECURSION_LIMIT + 1}",
    ])
    def test_bad_config_values_exit_2(self, runner, tmp_path, line):
        # a state with eigenvalue -0.5: a NaN tol.psd must not let it pass
        path = tmp_path / "bad.json"
        write_operator(LabeledOperator((("A", 2),), np.diag([1.5, -0.5])), str(path))
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=2",
                                   "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert f"line 1: {line.split()[0]} must be" in res.output

    def test_json_report_names_psd_method(self, runner, tmp_path):
        path = tmp_path / "state.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2) / 2), str(path))
        res = runner.invoke(main, ["check", "A", "-f", str(path), "--registry", "A=2",
                                   "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["psd_method"] == "cholesky" and payload["min_eigenvalue"] == -1e-9

    def test_admissible_mode_exit_codes(self, runner, tmp_path):
        ok = tmp_path / "state.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2) / 4), str(ok))
        res = runner.invoke(main, ["check", "A", "-f", str(ok),
                                   "--registry", "A=2", "--admissible"])
        assert res.exit_code == 0
        big = tmp_path / "big.json"
        write_operator(LabeledOperator((("A", 2),), np.eye(2)), str(big))
        res = runner.invoke(main, ["check", "A", "-f", str(big),
                                   "--registry", "A=2", "--admissible"])
        assert res.exit_code == 1
        # no trace fast path for hatted pairs: an oversized identity event
        # cannot be certified either way, which is exit code 3
        und = tmp_path / "und.json"
        write_operator(LabeledOperator((("A", 2), ("B", 2)), np.eye(4)), str(und))
        res = runner.invoke(main, ["check", "(^A -> ^B)", "-f", str(und),
                                   "--registry", "A=2,B=2", "--admissible"])
        assert res.exit_code == 3

    def test_admissible_mode_uses_config_psd_tol(self, runner, tmp_path):
        # half a rank-3 projector, pushed 1e-6 below zero on its kernel: PSD
        # within the configured tol.psd = 1e-5, and dominated by 1/2
        kernel = np.zeros((4, 4))
        kernel[0, 0] = 1.0
        path = tmp_path / "near_psd.json"
        write_operator(LabeledOperator((("A", 2), ("B", 2)),
                                       0.5 * (np.eye(4) - kernel) - 1e-6 * kernel), str(path))
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("registry.A = 2\nregistry.B = 2\ntol.psd = 1e-5\n")
        args = ["check", "(^A -> ^B)", "-f", str(path), "--config", str(cfg)]
        assert json.loads(runner.invoke(main, args + ["--json"]).output)["psd_ok"]
        res = runner.invoke(main, args + ["--admissible"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("FEASIBLE")

    def test_type_and_network_spec_together_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "op.json"
        write_operator(LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2), str(path))
        specf = tmp_path / "spec.json"
        specf.write_text(json.dumps({"slot_types": ["(^A -> ^B)"], "memories": ["I", "I"]}))
        res = runner.invoke(main, ["check", "(^A -> ^B)", "-f", str(path),
                                   "--network-spec", str(specf), "--registry", "A=2,B=2"])
        assert res.exit_code == 2
        assert "not both" in res.output
        res = runner.invoke(main, ["check", "-f", str(path), "--registry", "A=2,B=2"])
        assert res.exit_code == 2

    def test_hermiticity_failure_is_named(self, runner, tmp_path):
        files = _skewed_flip_files(tmp_path)
        args = ["check", FLIP_TYPE, "-f", files["op"], "--registry", REG_FLIP]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "psd:              FAILED, not Hermitian (defect 2.000e-08)" in res.output
        payload = json.loads(runner.invoke(main, args + ["--json"]).output)
        assert not payload["psd_ok"] and payload["psd_method"] == "cholesky"
        assert payload["herm_defect"] == pytest.approx(2e-8, rel=1e-6)

    @pytest.mark.parametrize("args, with_config, without_config", [
        (["check", FLIP_TYPE], "PASS", "FAIL"),
        (["check", "--network-spec", "{spec}"], "PASS", "FAIL"),
        (["check", "--network-spec", "{spec}", "--admissible"], "FEASIBLE", "NOT_ADMISSIBLE"),
        (["classify", FLIP_TYPE], "BISTOCH_ONLY", "NEITHER"),
        (["check", FLIP_TYPE, "--admissible"], "FEASIBLE", "NOT_ADMISSIBLE"),
    ], ids=["check", "check-spec", "check-spec-admissible", "classify", "check-admissible"])
    def test_config_tolerances_reach_every_command(self, runner, tmp_path, args,
                                                   with_config, without_config):
        # a defect of 2e-8 fails the default tol.herm = 1e-10 and passes 1e-6
        files = _skewed_flip_files(tmp_path)
        args = [a.format(**files) for a in args] + ["-f", files["op"], "--registry", REG_FLIP]
        res = runner.invoke(main, args + ["--config", files["config"]])
        assert res.exit_code == 0, res.output
        assert with_config in res.output.split()
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert without_config in res.output.split()
        if without_config == "NOT_ADMISSIBLE":
            assert "not Hermitian" in res.output

    @pytest.mark.parametrize("command", ["compose", "decompose"])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_config_tolerances_reach_compose_and_decompose(self, runner, tmp_path,
                                                           command, slots):
        # the first block, or the composed network, carries a 2e-8 defect
        from hoq.processes import time_flip_merged

        if slots == 1:
            registry = REG_FLIP
            spec = NetworkSpec((dual(BistochElem("A", (), "B", ())),), ("P", "F"))
        else:
            registry = "A1=2,B1=2,A2=2,B2=2,E1=2,P=2,F=2"
            spec = NetworkSpec(tuple(dual(BistochElem(f"A{i}", (), f"B{i}", ()))
                                     for i in (1, 2)), ("P", "E1", "F"))
        reg = SystemRegistry.from_dict(parse_inline_registry(registry))
        blocks = [time_flip_merged(2)] if slots == 1 else \
            [sample_deterministic(spec.block_type(i), reg, seed=i) for i in range(2)]
        files = {k: str(tmp_path / f"{k}.json") for k in ("in", "spec", "out")}
        if command == "compose":
            write_bundle([_skewed(blocks[0])] + blocks[1:], spec, files["in"])
            args = ["compose", files["in"], "-o", files["out"]]
            error = "failed its slot-type check"
        else:
            write_operator(_skewed(compose_network(blocks, spec, reg)), files["in"])
            with open(files["spec"], "w", encoding="utf-8") as fh:
                json.dump(bundle_to_dict([], spec)["spec"], fh)
            args = ["decompose", "--spec", files["spec"], "-f", files["in"], "-o", files["out"]]
            error = "fails the network characterization"
        args += ["--registry", registry]
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("tol.herm = 1e-6\n")
        res = runner.invoke(main, args + ["--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert res.output.startswith(f"wrote {files['out']}")
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert error in res.output

    def test_network_spec_mode(self, runner, tmp_path):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(BistochElem("A1", (), "B1", ())),), ("P", "F"))
        op = sample_deterministic(spec, reg, eps=0.4, seed=2)
        opf = tmp_path / "net.json"
        write_operator(op, str(opf))
        specf = tmp_path / "spec.json"
        specf.write_text(json.dumps(
            {"slot_types": ["((^A1 -> ^B1) -> I)"], "memories": ["P", "F"]}))
        res = runner.invoke(main, ["check", "-f", str(opf),
                                   "--network-spec", str(specf),
                                   "--registry", "A1=2,B1=2,P=2,F=2"])
        assert res.exit_code == 0, res.output


    def test_network_spec_mode_standard_hierarchy(self, runner, tmp_path):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(BistochElem("A1", (), "B1", ())),), ("P", "F"))
        std = NetworkSpec(tuple(dehat(x) for x in spec.slot_types), spec.memories)
        opf = tmp_path / "net.json"
        write_operator(sample_deterministic(std, reg, eps=0.4, seed=2), str(opf))
        specf = tmp_path / "spec.json"
        specf.write_text(json.dumps(
            {"slot_types": ["((^A1 -> ^B1) -> I)"], "memories": ["P", "F"]}))
        res = runner.invoke(main, ["check", "-f", str(opf), "--network-spec", str(specf),
                                   "--registry", "A1=2,B1=2,P=2,F=2",
                                   "--hierarchy", "standard"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("verdict:          PASS")

    @READING_COMMANDS
    def test_max_dim_limits_every_read(self, runner, tmp_path, args):
        files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2))
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("limits.max_dim = 3\n")
        res = runner.invoke(main, [a.format(**files) for a in args]
                            + ["--registry", "A=2,B=2", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "exceeds limits.max_dim = 3" in res.output

    @READING_COMMANDS
    def test_non_finite_entries_stop_every_read(self, runner, tmp_path, args):
        files = _command_files(tmp_path, non_finite_operator("nan_off_diagonal"))
        res = runner.invoke(main, [a.format(**files) for a in args] + ["--registry", "A=2,B=2"])
        assert res.exit_code == 2, res.output
        assert "non-finite" in res.output

    @READING_COMMANDS
    def test_truncated_gzip_stops_every_read(self, runner, tmp_path, args):
        files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2),
                               ".json.gz")
        for name in ("op", "spec", "bundle"):
            with open(files[name], "rb") as fh:
                raw = fh.read()
            with open(files[name], "wb") as fh:
                fh.write(raw[:len(raw) // 2])
        res = runner.invoke(main, [a.format(**files) for a in args] + ["--registry", "A=2,B=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "error: unreadable gzip file" in res.output

    @READING_COMMANDS
    def test_deep_json_stops_every_read(self, runner, tmp_path, args):
        files = _deep_files(tmp_path, "matrix")
        res = runner.invoke(main, [a.format(**files) for a in args] + ["--registry", "A=2,B=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "error: JSON nested too deeply" in res.output

    @pytest.mark.parametrize("name, args", [
        ("op", ["check", "(^A -> ^B)", "-f", "{op}"]),
        ("spec", ["decompose", "--spec", "{spec}", "-f", "{op}", "-o", "{out}"]),
        ("bundle", ["compose", "{bundle}", "-o", "{out}"]),
    ])
    def test_deep_json_in_one_file(self, runner, tmp_path, name, args):
        # only the named file is deep; the others are well formed
        (tmp_path / "deep").mkdir()
        deep = _deep_files(tmp_path / "deep", "matrix")[name]
        files = _command_files(tmp_path, LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2))
        files[name] = deep
        res = runner.invoke(main, [a.format(**files) for a in args] + ["--registry", "A=2,B=2"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "error: JSON nested too deeply" in res.output


    @pytest.mark.parametrize("args", [
        ["check", "(A B -> C D E)", "-f", "{op}"],
        ["check", "--network-spec", "{spec}", "-f", "{op}"],
        ["check", "(A B -> C D E)", "-f", "{op}", "--admissible"],
        ["classify", "((^A B -> ^C) -> (D -> E))", "-f", "{op}"],
        ["compose", "{bundle}", "-o", "{out}"],
        ["decompose", "--spec", "{spec}", "-f", "{op}", "-o", "{out}"],
    ], ids=["check", "check-spec", "check-admissible", "classify", "compose", "decompose"])
    def test_max_dim_bounds_the_sector_patterns(self, runner, tmp_path, args):
        # five one-dimensional systems: a 1x1 operator, but 2^5 sector patterns
        op = LabeledOperator(tuple((lab, 1) for lab in "ABCDE"), np.eye(1))
        spec = NetworkSpec((parse_type("(A B -> C)", SystemRegistry.of(A=1, B=1, C=1)),),
                           ("D", "E"))
        files = {k: str(tmp_path / f"{k}.json") for k in ("op", "spec", "bundle", "out")}
        write_operator(op, files["op"])
        write_bundle([op], spec, files["bundle"])
        with open(files["spec"], "w", encoding="utf-8") as fh:
            json.dump(bundle_to_dict([], spec)["spec"], fh)
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("limits.max_dim = 16\n")
        res = runner.invoke(main, [a.format(**files) for a in args]
                            + ["--registry", "A=1,B=1,C=1,D=1,E=1", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "5 systems: 2^5 sector patterns exceed limits.max_dim = 16" in res.output


class TestMakeAndClassify:
    def test_make_lc23(self, runner, tmp_path):
        out = tmp_path / "r2.json"
        res = runner.invoke(main, ["make", "lc23", "--n", "2", "-o", str(out)])
        assert res.exit_code == 0
        op = read_operator(str(out))
        assert op.dim == 16
        assert abs(op.trace() - 4) < 1e-12
        assert np.abs(op.data - np.diag(np.diag(op.data))).max() == 0

    def test_classify_lc23(self, runner, tmp_path):
        out = tmp_path / "r2.json"
        runner.invoke(main, ["make", "lc23", "--n", "2", "-o", str(out)])
        t = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)"
        res = runner.invoke(main, ["classify", t, "-f", str(out),
                                   "--registry", "A1=2,B1=2,A2=2,B2=2"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "BISTOCH_ONLY"
        assert any("A1:T B1:T A2:I B2:T" in line for line in res.output.splitlines())

    @pytest.mark.parametrize("make, t, registry, verdict, lam, forbidden", [
        (["lc23", "--n", "2"], "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)",
         "A1=2,B1=2,A2=2,B2=2", "BISTOCH_ONLY", "1/4",
         [["A1:I B1:T A2:T B2:T", 1.0], ["A1:T B1:T A2:I B2:T", 1.0]]),
        (["random-bistoch", "--d", "2"], "(^A -> ^B)", "A=2,B=2", "BOTH", "1/2", []),
    ])
    def test_classify_json_payload(self, runner, tmp_path, make, t, registry, verdict, lam,
                                   forbidden):
        out = str(tmp_path / "op.json")
        assert runner.invoke(main, ["make", *make, "-o", out]).exit_code == 0
        res = runner.invoke(main, ["classify", t, "-f", out, "--registry", registry, "--json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert list(payload) == ["verdict", "forbidden", "bistoch", "standard"]
        assert payload["verdict"] == verdict
        assert [p for p, _ in payload["forbidden"]] == [p for p, _ in forbidden]
        assert np.allclose([n for _, n in payload["forbidden"]], [n for _, n in forbidden],
                           rtol=1e-12, atol=0)
        # both reports share the front half: only the sector test differs
        for key, passed in (("bistoch", True), ("standard", verdict == "BOTH")):
            rep = payload[key]
            assert list(rep) == ["verdict", "psd_ok", "min_eigenvalue", "psd_method",
                                 "herm_defect", "lambda_ok", "lambda_expected",
                                 "lambda_measured", "sector_residual",
                                 "forbidden_components", "permutation"]
            assert rep["verdict"] == ("PASS" if passed else "FAIL")
            assert (rep["psd_ok"], rep["psd_method"], rep["min_eigenvalue"]) == (
                True, "cholesky", -TOL_PSD)
            assert rep["lambda_ok"] and rep["lambda_expected"] == lam
            assert abs(rep["lambda_measured"] - float(Fraction(lam))) < 1e-15
            assert rep["herm_defect"] < 1e-15 and rep["permutation"] is None
            assert (rep["sector_residual"] < 1e-15) == passed
            assert rep["forbidden_components"] == ([] if passed else payload["forbidden"])

    def test_make_n_time_flip_and_switch(self, runner, tmp_path):
        two_slots = ("A1", "B1", "A2", "B2", "P", "F")
        for proc, args, dim, labels in (
                ("n-time-flip", ["--n", "2", "--d", "2"], 1024, two_slots),
                ("flip-switch", ["--d", "2"], 256, two_slots),
                ("time-flip", ["--d", "3"], 324, ("A", "B", "P", "F"))):
            out = tmp_path / f"{proc}.json"
            res = runner.invoke(main, ["make", proc, *args, "-o", str(out)])
            assert res.exit_code == 0, res.output
            op = read_operator(str(out))
            assert op.dim == dim
            assert op.labels == labels

    @pytest.mark.parametrize("args", [
        ["time-flip", "--d", "2"], ["n-time-flip", "--n", "2", "--d", "2"],
        ["flip-switch", "--d", "2"], ["lc22", "--d", "3"], ["lc23", "--n", "3"],
        ["random-bistoch", "--d", "5"], ["random-bistoch", "--d", "2", "--tail-out", "5"]])
    def test_make_refuses_more_than_max_dim(self, runner, tmp_path, max_dim_16, args):
        out = tmp_path / "op.json"
        res = runner.invoke(main, ["make", *args, "-o", str(out), "--config", max_dim_16])
        assert res.exit_code == 2, res.output
        assert "exceeds limits.max_dim = 16" in res.output
        assert not out.exists()

    def test_make_refuses_the_default_max_dim(self, runner, tmp_path):
        # three slots at d = 2 make D = 16384: the CLI's check is the one dimension rule
        out = tmp_path / "op.json"
        res = runner.invoke(main, ["make", "n-time-flip", "--n", "3", "--d", "2", "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert f"operator dimension 16384 exceeds limits.max_dim = {DEFAULT_DIM_CAP}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["op.json", "op.json.gz"])
    @pytest.mark.parametrize("args, build", [pytest.param(*case, id=case[0][0]) for case in [
        (["time-flip", "--d", "2"],
         lambda: processes.canonical_ports(processes.time_flip_choi(2))),
        (["n-time-flip", "--n", "1", "--d", "2"],
         lambda: processes.canonical_ports(processes.n_time_flip_choi(1, 2))),
        (["flip-switch", "--d", "2"],
         lambda: processes.canonical_ports(processes.flippable_switch_choi(2))),
        (["lc23", "--n", "3"], lambda: processes.lc_23_process(3)),
        (["lc22", "--d", "3", "--x", "2", "--y", "0"], lambda: processes.lc_22_process(3, 2, 0)),
        (["random-bistoch", "--d", "2", "--tail-in", "2", "--seed", "1"],
         lambda: processes.random_bistochastic_channel(2, 2, 1, k=3, seed=1))]])
    def test_make_targets_read_back_as_built(self, runner, tmp_path, name, args, build):
        # every canonical process is real; only the random channel is complex
        dtype = np.complex128 if args[0] == "random-bistoch" else np.float64
        out = tmp_path / name
        res = runner.invoke(main, ["make", *args, "-o", str(out)])
        assert res.exit_code == 0, res.output
        built, back = build(), read_operator(str(out))
        assert built.data.dtype == back.data.dtype == dtype
        assert back.factors == built.factors and back.data.tobytes() == built.data.tobytes()

    @pytest.mark.parametrize("args", [
        ["lc23", "--n", "2"], ["random-bistoch", "--d", "2", "--tail-in", "2", "--tail-out", "2"]])
    def test_make_at_max_dim_writes(self, runner, tmp_path, max_dim_16, args):
        out = tmp_path / "op.json"
        res = runner.invoke(main, ["make", *args, "-o", str(out), "--config", max_dim_16])
        assert res.exit_code == 0, res.output
        assert read_operator(str(out)).dim == 16

    @pytest.mark.parametrize("args, dim", [
        (["time-flip", "--d", "2"], 64), (["time-flip", "--d", "3"], 324),
        (["time-flip", "--d", "4"], 1024),
        (["n-time-flip", "--n", "1", "--d", "2"], 64),
        (["n-time-flip", "--n", "1", "--d", "3"], 324),
        (["n-time-flip", "--n", "2", "--d", "2"], 1024),
        (["flip-switch", "--d", "2"], 256),
        (["lc23", "--n", "2"], 16), (["lc23", "--n", "3"], 81),
        (["lc22", "--d", "2"], 16), (["lc22", "--d", "3"], 81), (["lc22", "--d", "5"], 625),
        (["random-bistoch", "--d", "2"], 4),
        (["random-bistoch", "--d", "3", "--tail-in", "2"], 18),
        (["random-bistoch", "--d", "2", "--tail-in", "2", "--tail-out", "3"], 24)],
        ids=lambda v: "_".join(a.lstrip("-") for a in v) if isinstance(v, list) else str(v))
    def test_make_size_formula_at_max_dim(self, runner, tmp_path, args, dim):
        # each target's dimension formula, pinned one below limits.max_dim and at it
        out, cfg = tmp_path / "op.json", tmp_path / "hoq.cfg"
        cfg.write_text(f"limits.max_dim = {dim - 1}\n")
        res = runner.invoke(main, ["make", *args, "-o", str(out), "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert f"operator dimension {dim} exceeds limits.max_dim = {dim - 1}" in res.output
        assert not out.exists()
        cfg.write_text(f"limits.max_dim = {dim}\n")
        res = runner.invoke(main, ["make", *args, "-o", str(out), "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert read_operator(str(out), max_dim=dim).dim == dim

    @pytest.mark.parametrize("args", [["--d", "0"], ["--d", "-2"], ["--tail-in", "0"],
                                      ["--tail-in", "-3"], ["--tail-in", "-3", "--tail-out", "-2"],
                                      ["--d", "-9"]])
    def test_make_random_bistoch_refuses_dimensions_below_one(self, runner, tmp_path, max_dim_16,
                                                              args):
        # with a small max_dim too, the bad dimension is what is reported
        out = tmp_path / "op.json"
        for extra in ([], ["--config", max_dim_16]):
            res = runner.invoke(main, ["make", "random-bistoch", *args, "-o", str(out), *extra])
            assert res.exit_code == 2, res.output
            assert "dimensions must be at least 1" in res.output
            assert not out.exists()

    @pytest.mark.parametrize("process", ["time-flip", "flip-switch", "lc22"])
    def test_make_reports_a_negative_dimension_under_a_small_max_dim(self, runner, tmp_path,
                                                                       max_dim_16, process):
        res = runner.invoke(main, ["make", process, "--d", "-3", "-o", str(tmp_path / "op.json"),
                                   "--config", max_dim_16])
        assert res.exit_code == 2, res.output
        assert "max_dim" not in res.output

    def test_make_deterministic_given_seed(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            runner.invoke(main, ["make", "random-bistoch", "--d", "2",
                                 "--seed", "11", "-o", str(path)])
        assert a.read_text() == b.read_text()

    def test_apply_flip(self, runner, tmp_path):
        from hoq.linalg import choi_of_kraus
        chan = tmp_path / "chan.json"
        write_operator(choi_of_kraus([np.eye(2)], "A", "B"), str(chan))
        state = tmp_path / "rho.json"
        write_operator(LabeledOperator((("R", 2),), np.diag([0.25, 0.75])), str(state))
        ctrl = tmp_path / "w.json"
        write_operator(LabeledOperator((("W", 2),), np.diag([0.5, 0.5])), str(ctrl))
        out = tmp_path / "out.json"
        res = runner.invoke(main, ["apply-flip", "--channel", str(chan),
                                   "--state", str(state), "--control", str(ctrl),
                                   "-o", str(out)])
        assert res.exit_code == 0
        got = read_operator(str(out))
        assert np.abs(got.data - np.kron(np.diag([0.25, 0.75]),
                                         np.diag([0.5, 0.5]))).max() < 1e-12


class TestComposeDecompose:
    def test_roundtrip_bundle(self, runner, tmp_path):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, E1=2, P=2, F=2)
        spec = NetworkSpec(
            (dual(BistochElem("A1", (), "B1", ())),
             dual(BistochElem("A2", (), "B2", ()))),
            ("P", "E1", "F"))
        blocks = [sample_deterministic(spec.block_type(i), reg, eps=0.5, seed=3 + i)
                  for i in range(2)]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(bundle_to_dict(blocks, spec)))
        reg_arg = "A1=2,B1=2,A2=2,B2=2,E1=2,P=2,F=2"

        r1 = tmp_path / "r1.json"
        res = runner.invoke(main, ["compose", str(bundle), "-o", str(r1),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "slot_types": ["((^A1 -> ^B1) -> I)", "((^A2 -> ^B2) -> I)"],
            "memories": ["P", "E1", "F"],
        }))
        bundle2 = tmp_path / "bundle2.json"
        res = runner.invoke(main, ["decompose", "--spec", str(spec_file),
                                   "-f", str(r1), "-o", str(bundle2),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output

        r2 = tmp_path / "r2.json"
        res = runner.invoke(main, ["compose", str(bundle2), "-o", str(r2),
                                   "--registry", reg_arg])
        assert res.exit_code == 0, res.output
        first = read_operator(str(r1))
        second = read_operator(str(r2))
        assert first.factors == second.factors
        assert np.abs(first.data - second.data).max() < 1e-8

    @pytest.mark.parametrize("cap", [4, 16, 256])
    def test_compose_writes_no_more_than_max_dim(self, runner, tmp_path, cap):
        # two 4-dim blocks compose to a 16-dim operator
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2)
        spec = NetworkSpec((dual(BistochElem("A1", (), "B1", ())),
                            dual(BistochElem("A2", (), "B2", ()))), ("I", "I", "I"))
        blocks = [sample_deterministic(spec.block_type(i), reg, eps=0.5, seed=3 + i)
                  for i in range(2)]
        bundle, out, cfg = (tmp_path / name for name in ("bundle.json", "out.json", "hoq.cfg"))
        write_bundle(blocks, spec, str(bundle))
        cfg.write_text(f"limits.max_dim = {cap}\n")
        res = runner.invoke(main, ["compose", str(bundle), "-o", str(out), "--config", str(cfg),
                                   "--registry", "A1=2,B1=2,A2=2,B2=2"])
        if cap < 16:
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
            assert f"operator dimension 16 exceeds limits.max_dim = {cap}" in res.output
            assert not out.exists()
        else:
            assert res.exit_code == 0, res.output
            assert read_operator(str(out), max_dim=cap).dim == 16

    @pytest.mark.parametrize("cap", [64, 256])
    def test_decompose_writes_no_more_than_max_dim(self, runner, tmp_path, cap):
        # a 64-dim three-slot network whose block A2 B2 M1 M2 has dimension 256
        labels = {f"{x}{i}": 2 for i in (1, 2, 3) for x in "AB"}
        reg = SystemRegistry.of(**labels)
        spec = NetworkSpec(tuple(parse_type(f"(A{i} -> B{i})", reg) for i in (1, 2, 3)),
                           ("I",) * 4)
        op, bundle, spec_file, cfg = (
            tmp_path / name for name in ("op.json", "bundle.json", "spec.json", "hoq.cfg"))
        write_operator(sample_deterministic(spec, reg, eps=0.5, seed=3), str(op))
        spec_file.write_text(json.dumps(bundle_to_dict([], spec)["spec"]))
        cfg.write_text(f"limits.max_dim = {cap}\n")
        common = ["--config", str(cfg), "--registry", ",".join(f"{k}=2" for k in labels)]
        res = runner.invoke(main, ["decompose", "--spec", str(spec_file), "-f", str(op),
                                   "-o", str(bundle)] + common)
        if cap < 256:
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
            assert f"operator dimension 256 exceeds limits.max_dim = {cap}" in res.output
            assert not bundle.exists()
        else:
            assert res.exit_code == 0, res.output
            res = runner.invoke(main, ["compose", str(bundle), "-o", str(tmp_path / "out.json")]
                                + common)
            assert res.exit_code == 0, res.output

    def test_config_file_and_env(self, runner, tmp_path, monkeypatch):
        cfg = tmp_path / "hoq.cfg"
        cfg.write_text("registry.A = 2\nregistry.B = 2\n")
        res = runner.invoke(main, ["lambda", "(^A -> ^B)", "--config", str(cfg)])
        assert res.output.strip() == "1/2"
        monkeypatch.setenv("HOQ_CONFIG", str(cfg))
        res = runner.invoke(main, ["lambda", "(^A -> ^B)"])
        assert res.output.strip() == "1/2"


FACTORS_NOT_PAIRS = "malformed operator payload: the factors must be [label, dimension] pairs"

# inputs that every command refuses with exit 2 and one line naming the fault:
# (command with ``{file}`` for the input file and ``{op}`` for a good operator
# file, the input file's text, the message)
BAD_INPUTS = {
    "hatted_trivial_system": (["lambda", "(^I -> ^B)", "--registry", "B=2"], None,
                              "the trivial system cannot be hatted at position 9"),
    "trivial_system_in_a_tail": (["lambda", "(^A I -> ^B)", "--registry", "A=2,B=2"], None,
                                 "'I' cannot appear in a tail at position 11"),
    "operator_without_matrix": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                                {"factors": [["A", 2]]},
                                "malformed operator payload: no 'matrix' key"),
    "malformed_factors": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                          {"factors": [["A"]], "matrix": [[1, 0], [0, 1]]}, FACTORS_NOT_PAIRS),
    "factors_not_a_list": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                           {"factors": 5, "matrix": [[1, 0], [0, 1]]}, FACTORS_NOT_PAIRS),
    "factor_triple": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                      {"factors": [["A", 2, 3]], "matrix": [[1, 0], [0, 1]]}, FACTORS_NOT_PAIRS),
    "no_rows": (["check", "A", "-f", "{file}", "--registry", "A=1"],
                {"factors": [["A", 1]], "matrix": []},
                "malformed operator payload: 0 rows for factor dimensions of product 1"),
    # 371 characters from the matrix's "[": room for 185 entries of "0,"
    "pair_header_claiming_too_much": (["check", "A", "-f", "{file}", "--registry", "A=1000"],
                                      {"factors": [["A", 1000]], "matrix": [[[0, 0]] * 46]},
                                      "malformed operator payload: dimension 1000 needs 1000000 "
                                      "entries, more than the 185 that the rest of the text "
                                      "holds"),
    "ragged_row": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                   {"factors": [["A", 2]], "matrix": [[0.5, 0], [0]]},
                   "malformed operator payload: row 1 of 1 entries for factor dimensions "
                   "of product 2"),
    "repeated_labels": (["check", "A", "-f", "{file}", "--registry", "A=2"],
                        {"factors": [["A", 2], ["A", 2]], "matrix": [[0] * 4] * 4},
                        "repeated factor labels in ['A', 'A']"),
    "bundle_blocks_not_a_list": (["compose", "{file}", "-o", "{out}", "--registry", "A=2,B=2"],
                                 {"blocks": {}, "spec": {"slot_types": ["(^A -> ^B)"],
                                                         "memories": ["I", "I"]}},
                                 "malformed bundle payload: the blocks must be a list"),
    "bundle_without_spec": (["compose", "{file}", "-o", "{out}", "--registry", "A=2,B=2"],
                            {"blocks": []}, "malformed bundle payload: no 'spec' key"),
    "unregistered_memory": (["compose", "{file}", "-o", "{out}", "--registry", "A=2,B=2"],
                            {"blocks": [], "spec": {"slot_types": ["(^A -> ^B)"],
                                                    "memories": ["E", "I"]}},
                            "memory 'E' not registered and absent from blocks"),
    "registry_dimension": (["lambda", "(^A -> ^B)", "--registry", "A=x"], None,
                           "bad dimension in registry entry 'A=x'"),
    "registry_label": (["lambda", "(^A -> ^B)", "--registry", "1A=2"], None,
                       "invalid system label '1A'"),
    "config_value": (["lambda", "(^A -> ^B)", "--registry", "A=2,B=2", "--config", "{file}"],
                     "tol.herm = abc\n", "line 1: bad value 'abc' for 'tol.herm'"),
}
# a network spec standing alone, for check and decompose, or as a bundle's spec
BAD_INPUTS.update({
    f"spec_{name}_{route}": (args + ["--registry", "A=2,B=2"],
                             '{"blocks": [], "spec": ' + text + "}" if route == "bundle" else text,
                             f"malformed network spec: {message}")
    for name, text, message in [("list", "[]", "not a JSON object"),
                                ("string", '"x"', "not a JSON object"),
                                ("null", "null", "not a JSON object"),
                                ("empty", "{}", "no 'memories' key"),
                                ("no_slot_types", '{"memories": ["I", "I"]}',
                                 "no 'slot_types' key")]
    for route, args in [("check", ["check", "--network-spec", "{file}", "-f", "{op}"]),
                        ("decompose", ["decompose", "--spec", "{file}", "-f", "{op}",
                                       "-o", "{out}"]),
                        ("bundle", ["compose", "{file}", "-o", "{out}"])]})


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2_with_its_message(runner, tmp_path, name):
    args, content, message = BAD_INPUTS[name]
    path, out, op = tmp_path / "input", tmp_path / "out.json", tmp_path / "op.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    write_operator(LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2), str(op))
    res = runner.invoke(main, [a.format(file=path, out=out, op=op) for a in args])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert res.output == f"error: {message}\n"
    assert not out.exists()
