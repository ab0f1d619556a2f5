import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import runpy
import signal
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stablesim as ss
from stablesim import io as sio
from stablesim.cli import main


class TestSpecJson:
    @pytest.mark.parametrize("spec", ss.catalog_specs(),
                             ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        doc = sio.spec_to_dict(spec)
        back = sio.spec_from_dict(json.loads(json.dumps(doc)))
        assert back == spec

    def test_unknown_family(self):
        with pytest.raises(ss.InvalidSpecError):
            sio.spec_from_dict({"family": "weird", "alpha": 1.5})

    def test_missing_field(self):
        with pytest.raises(ss.InvalidSpecError):
            sio.spec_from_dict({"family": "lfsm", "alpha": 1.5})

    def test_malformed_atom_named(self):
        doc = {"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
               "atoms": [{"b": [1.0], "weight": 1.0}]}
        with pytest.raises(ss.InvalidSpecError, match="malformed mixed_lfsm spec document"):
            sio.spec_from_dict(doc)

    @pytest.mark.parametrize("doc, field", [
        ([{"family": "lfsm", "alpha": 1.5, "hurst": 0.7}], "JSON object"),
        ({"family": "lfsm", "alpha": "1.5", "hurst": 0.7}, "'alpha'"),
        ({"family": "chentsov", "alpha": True, "beta": 0.5}, "'alpha'"),
        ({"family": "truncated_fractional", "alpha": 1.5, "a": math.nan, "b": 0.5}, "'a'"),
        ({"family": "lfsm", "alpha": 1.5, "hurst": math.inf}, "'hurst'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
          "atoms": [{"b": [1.0, -math.inf], "weight": 1.0}]}, "'atoms[0].b[1]'"),
        ({"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
          "harmonics": [{"k": 1, "cos": "1"}]}, "'harmonics[0].cos'"),
        ({"family": "lfsm", "alpha": 1.5, "hurst": 0.7, "cplus": 0.5}, "'cplus'"),
        ({"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
          "harmonics": [{"k": 1, "cos": 1.0, "sine": 2.0}]}, "'harmonics[0].sine'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
          "atoms": [{"b": [1.0, 0.0], "wieght": 2.0, "weight": 1.0}]}, "'atoms[0].wieght'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
          "atoms": [{"b": [1.0, 0.0, 3.0], "weight": 1.0}]}, "'atoms[0].b[2]'"),
        ({"family": "lfsm", "alpha": [1.5], "hurst": 0.7}, "'alpha'"),
        ({"family": "lfsm", "alpha": {"x": 1.5}, "hurst": 0.7}, "'alpha'"),
        ({"family": "chentsov", "alpha": 1.25, "beta": [0.5]}, "'beta'"),
        ({"family": "lfsm", "alpha": 1.5, "hurst": []}, "'hurst'"),
        ({"family": "rotating_average", "alpha": [1.5], "beta": 0.8,
          "harmonics": [{"k": 1, "cos": 1.0}]}, "'alpha'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": {"h": 0.7},
          "atoms": [{"b": [1.0, 0.0], "weight": 1.0}]}, "'hurst'"),
        ({"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
          "harmonics": [{"k": 1, "cos": [1.0]}]}, "'harmonics[0].cos'"),
        ({"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
          "harmonics": [{"k": 1, "cos": 1.0}], "constant": [0.5]}, "'constant'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
          "atoms": [{"b": [1.0, 0.0], "weight": [1.0]}]}, "'atoms[0].weight'"),
        ({"family": "lfsm", "alpha": 10 ** 400, "hurst": 0.7}, "'alpha'"),
        ({"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
          "harmonics": [{"k": 10 ** 400, "cos": 1.0}]}, "'harmonics[0].k'"),
        ({"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
          "atoms": [{"b": [1.0, 0.0], "weight": -10 ** 400}]}, "'atoms[0].weight'"),
    ], ids=["list", "string", "bool", "nan", "inf", "nested-minus-inf", "nested-string",
            "unknown-key", "nested-unknown-key", "misspelt-atom-key", "long-atom-b",
            "scalar-as-list", "scalar-as-object", "chentsov-beta-as-list", "scalar-as-empty-list",
            "rotating-alpha-as-list", "mixed-hurst-as-object", "nested-cos-as-list",
            "constant-as-list", "atom-weight-as-list", "int-past-float-alpha",
            "int-past-float-harmonic", "int-past-float-atom-weight"])
    def test_outside_input_rejected(self, doc, field, tmp_path, capsys):
        with pytest.raises(ss.InvalidSpecError, match=re.escape(field)):
            sio.spec_from_dict(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--spec", str(path), "--t", "0:1:5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2.5, 0, -1])
    def test_harmonic_index_checked_before_conversion(self, k, tmp_path, capsys):
        # int() would load 2.5 as harmonic 2
        doc = {"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
               "harmonics": [{"k": 1, "cos": 1.0}, {"k": k, "cos": 0.5}]}
        with pytest.raises(ss.InvalidSpecError, match=re.escape("'harmonics[1].k'")):
            sio.spec_from_dict(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--spec", str(path)]) == 2
        assert "'harmonics[1].k' must be a positive integer" in capsys.readouterr().err
        doc["harmonics"][1]["k"] = 2.0
        assert sio.spec_from_dict(doc).series.terms[1][0] == 2

    def test_json_integers_kept_as_given(self):
        spec = sio.spec_from_dict({"family": "chentsov", "alpha": 1, "beta": 0.5})
        assert type(spec.alpha) is int
        assert sio.spec_to_dict(spec)["alpha"] == 1

    def test_digest_stable(self):
        d1 = sio.spec_digest(sio.spec_to_dict(ss.Lfsm(1.5, 0.7)))
        d2 = sio.spec_digest(sio.spec_to_dict(ss.Lfsm(1.5, 0.7)))
        d3 = sio.spec_digest(sio.spec_to_dict(ss.Lfsm(1.5, 0.71)))
        assert d1 == d2 != d3


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    | st.sampled_from(sorted(ss.FAMILIES)),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(("family", "alpha")) | st.text(max_size=3), kids, max_size=3),
    max_leaves=8)
_TEMPLATES = tuple({s.label: s.to_doc() for s in ss.catalog_specs()}.values())


@st.composite
def _perturbed_docs(draw):
    """A family's catalog document with every number redrawn (a float, often
    in [-2, 2], an integer or any JSON value), every list 0 to 3 entries
    long, and maybe a top-level key dropped or an unknown one added."""
    def redraw(value):
        if isinstance(value, dict):
            return {k: redraw(v) for k, v in value.items()}
        if isinstance(value, list):
            return [redraw(value[0]) for _ in range(draw(st.integers(0, 3)))]
        if isinstance(value, str):
            return value
        return draw(st.floats(-2.0, 2.0) | st.floats() | st.integers(-10 ** 6, 10 ** 6) | _JSON)

    doc = redraw(draw(st.sampled_from(_TEMPLATES)))
    edit = draw(st.sampled_from(("none", "drop", "add")))
    if edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "add":
        doc[draw(st.text(max_size=3))] = draw(_JSON)
    return doc


_DOCS = _JSON | _perturbed_docs()


@st.composite
def _admissible_docs(draw):
    """A document of any family with every parameter drawn from a bounded
    admissible range (the truncated b inside its region)."""
    def num(lo, hi):
        return draw(st.floats(lo, hi))

    family = draw(st.sampled_from(sorted(ss.FAMILIES)))
    wide = family not in ("log_fractional", "truncated_fractional")
    doc = {"family": family, "alpha": num(0.3 if wide else 1.05, 1.95)}
    alpha = doc["alpha"]
    if family in ("lfsm", "mixed_lfsm"):
        doc["hurst"] = num(0.05, 0.95)
    if family in ("lfsm", "linear_motion"):
        doc["c_plus"], doc["c_minus"] = num(-2.0, 2.0), num(-2.0, 2.0)
    if family == "log_fractional":
        doc["scale"] = num(-2.0, 2.0)
    if family == "mixed_lfsm":
        doc["atoms"] = [{"b": [num(-2.0, 2.0), num(-2.0, 2.0)], "weight": num(0.1, 2.0)}
                        for _ in range(draw(st.integers(1, 3)))]
    if family == "truncated_fractional":
        a = num(0.05, 1.0) * draw(st.sampled_from((-1.0, 1.0)))
        lo, hi = (max(0.0, alpha * a - alpha + 1.0), alpha * a) if a > 0 else \
            (alpha * a, min(0.0, alpha * a + 1.0))
        doc["a"], doc["b"] = a, lo + num(0.05, 0.95) * (hi - lo)
    if family in ("chentsov", "rotating_average"):
        doc["beta"] = num(0.05, 0.95) * (alpha if family == "rotating_average" else 1.0)
    if family == "rotating_average":
        doc["harmonics"] = [{"k": draw(st.integers(1, 5)), "cos": num(-1.0, 1.0),
                             "sin": num(-1.0, 1.0)} for _ in range(draw(st.integers(1, 3)))]
    return doc


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_only_invalid_spec_error_escapes(self, doc):
        try:
            ss.build(ss.Kernel.from_doc(doc))
        except ss.InvalidSpecError:
            pass

    @settings(max_examples=30, deadline=None)
    @given(_admissible_docs(), st.integers(0, 2 ** 32 - 1))
    def test_admissible_documents_simulate_finite(self, doc, seed):
        spec = ss.Kernel.from_doc(doc)
        assume(ss.validate(spec).ok)  # H = 1/alpha, c_plus = c_minus or a zero profile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = ss.simulate(ss.build(spec), [0.5, 1.0, 2.0], 3, seed, level=0)
        assert ens.values.shape == (3, 3) and np.all(np.isfinite(ens.values))


class TestEnsembleCsv:
    def test_exact_round_trip(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        ens = ss.simulate(k, [0.5, 1.0, 2.0], 7, seed=3)
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, ens.times, ens.values)
        buf.seek(0)
        times, values = sio.read_ensemble_csv(buf)
        assert np.array_equal(times, ens.times)
        assert np.array_equal(values, ens.values)

    def test_zero_path_round_trip(self):
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, np.array([0.5, 1.0, 2.0]), np.empty((0, 3)))
        assert buf.getvalue().splitlines()[0] == "time"
        buf.seek(0)
        times, values = sio.read_ensemble_csv(buf)
        assert np.array_equal(times, [0.5, 1.0, 2.0])
        assert values.shape == (0, 3)

    def test_round_trip_over_several_blocks(self):
        # 2.5 parse blocks of rows: two full ones and a partial last one
        n_times = 2 * sio._CSV_BLOCK_ROWS + sio._CSV_BLOCK_ROWS // 2
        times = np.linspace(0.0, 1.0, n_times + 1)[1:]
        values = np.random.default_rng(5).standard_normal((3, n_times))
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, times, values)
        buf.seek(0)
        t_back, v_back = sio.read_ensemble_csv(buf)
        assert np.array_equal(t_back, times)
        assert np.array_equal(v_back, values)
        assert v_back.flags.c_contiguous

    def test_bad_row_past_first_block_names_its_line(self):
        rows = "".join(f"{j},1.5\n" for j in range(sio._CSV_BLOCK_ROWS + 3))
        text = "time,path_0\n" + rows + "0.5,abc\n"
        line = sio._CSV_BLOCK_ROWS + 5
        with pytest.raises(ValueError, match=re.escape(f"line {line}: non-numeric field")):
            sio.read_ensemble_csv(io.StringIO(text))

    @pytest.mark.parametrize("n_times", (3, 6))
    def test_times_must_match_columns(self, n_times):
        buf = io.StringIO()
        with pytest.raises(ValueError,
                           match=f"times has {n_times} entries, values has 5 columns"):
            sio.write_ensemble_csv(buf, np.arange(float(n_times)), np.ones((2, 5)))
        assert buf.getvalue() == ""

    def test_header_checked(self):
        with pytest.raises(ValueError):
            sio.read_ensemble_csv(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize("row, message", [
        ("0.5,1.0,2.0", "line 3: 3 fields, the header has 2"),
        ("0.5", "line 3: 1 fields, the header has 2"),
        ("0.5,abc", "line 3: non-numeric field"),
        # Python's float() reads "1_5" as 15.0; numpy's parser does not
        ("0.5,1_5", "line 3: non-numeric field"),
    ], ids=["long-row", "short-row", "non-numeric", "underscore-digits"])
    def test_bad_row_names_its_line(self, row, message):
        text = "time,path_0\n0.25,1.5\n" + row + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            sio.read_ensemble_csv(io.StringIO(text))

    def test_blank_lines_skipped_but_counted(self):
        text = "time,path_0\n0.25,1.5\n\n   \n0.5,2.5\n\n"
        times, values = sio.read_ensemble_csv(io.StringIO(text))
        assert np.array_equal(times, [0.25, 0.5]) and np.array_equal(values, [[1.5, 2.5]])
        for row, message in [("0.75,abc", "line 6: non-numeric field"),
                             ("0.75", "line 6: 1 fields, the header has 2")]:
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                sio.read_ensemble_csv(io.StringIO(text[:-1] + row + "\n"))

    def test_whole_blocks_read_without_warning(self):
        n_times = 2 * sio._CSV_BLOCK_ROWS
        times = np.arange(n_times, dtype=float)
        values = np.random.default_rng(6).standard_normal((2, n_times))
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, times, values)
        buf.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_back, v_back = sio.read_ensemble_csv(buf)
        assert np.array_equal(t_back, times) and np.array_equal(v_back, values)

    @pytest.mark.parametrize("index", [0, sio._CSV_BLOCK_ROWS - 1, sio._CSV_BLOCK_ROWS,
                                       2 * sio._CSV_BLOCK_ROWS - 1],
                             ids=["first-of-block-0", "last-of-block-0", "first-of-block-1",
                                  "last-of-block-1"])
    @pytest.mark.parametrize("bad, message", [
        ("0.5,abc", "non-numeric field"),
        ("0.5,1.0,2.0", "3 fields, the header has 2"),
    ], ids=["non-numeric", "long-row"])
    def test_bad_row_at_block_edge_names_its_line(self, index, bad, message):
        rows = [f"{j},1.5" for j in range(2 * sio._CSV_BLOCK_ROWS + 3)]
        rows[index] = bad
        text = "time,path_0\n" + "".join(r + "\n" for r in rows)
        with pytest.raises(ValueError, match="^" + re.escape(f"line {index + 2}: {message}")):
            sio.read_ensemble_csv(io.StringIO(text))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n_paths: st.integers(
        1, 2 * sio._CSV_BLOCK_ROWS + 1).flatmap(lambda n_times: st.tuples(
            hnp.arrays(np.float64, n_times), hnp.arrays(np.float64, (n_paths, n_times))))))
    def test_any_float_matrix_round_trips(self, times_values):
        times, values = times_values
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, times, values)
        buf.seek(0)
        t_back, v_back = sio.read_ensemble_csv(buf)
        for sent, back in ((times, t_back), (values, v_back)):
            assert back.shape == sent.shape
            nan = np.isnan(sent)
            assert np.array_equal(np.isnan(back), nan)
            # bit-exact, so -0.0 keeps its sign bit
            assert np.array_equal(back.view(np.uint64)[~nan], sent.view(np.uint64)[~nan])

    # SHA-256 of the writer's text, taken from an element-by-element repr of
    # each value, as the writer that preceded the row-wise one wrote it: the
    # file bytes are part of the format.  The lfsm input is a simulated
    # ensemble, so its digest also moves when simulate's seed-to-path
    # mapping does
    @pytest.mark.parametrize("case, digest", [
        ("lfsm", "5347cc7b3f7aab6014a70c47c34d81c302eea38b4f5cfdd5ed1d8ebacf11be74"),
        ("special", "cad0f116eedaba3131f1efd8d5b7d149e83733197b61547d7f855dcb0f898c95"),
        ("integer", "18e2dcc73be8b383799c299cfafae7f2ceaba7b745c0bc2d6566cb643f566af4"),
    ])
    def test_writer_bytes_pinned(self, case, digest):
        if case == "lfsm":
            ens = ss.simulate(ss.build(ss.Lfsm(1.5, 0.7)), [0.25, 0.5, 1.0, 2.0], 7, seed=3)
            times, values = ens.times, ens.values
        elif case == "special":
            times = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 1e308, 5e-324])
            values = np.array([[-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.1],
                               [0.1, 1e308, 5e-324, np.nan, -np.inf, np.inf, -0.0]])
        else:
            times, values = np.arange(3), np.ones((2, 3), dtype=np.int64)
        buf = io.StringIO()
        sio.write_ensemble_csv(buf, times, values)
        if case == "integer":
            assert buf.getvalue() == "time,path_0,path_1\n0.0,1.0,1.0\n1.0,1.0,1.0\n2.0,1.0,1.0\n"
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_bad_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("time,path_0\n0.5,1.0,2.0\n")
        rc = main(["transform", "--input", str(path), "--op", "masani-inverse",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


def _csv_text(times, values) -> str:
    buf = io.StringIO()
    sio.write_ensemble_csv(buf, times, values)
    return buf.getvalue()


def _write_csv_file(path, times, values):
    with open(path, "w") as fh:
        sio.write_ensemble_csv(fh, times, values)


def _assert_repr_csv(text: str, times, values) -> None:
    """``text`` is the ensemble CSV with ``repr`` of each value, the writer's
    contract; a failure names the first field that differs."""
    header = ",".join(["time", *(f"path_{i}" for i in range(len(values)))]) + "\n"
    expected = header + "".join(",".join(map(repr, [t, *column])) + "\n"
                                for t, column in zip(times.tolist(), values.T.tolist()))
    if text != expected:
        fields = zip(re.split("[,\n]", text), re.split("[,\n]", expected))
        i, (got, want) = next((i, f) for i, f in enumerate(fields) if f[0] != f[1])
        pytest.fail(f"field {i}: {got!r}, repr gives {want!r}")


@pytest.fixture(scope="module")
def repr_inputs():
    """2^20 random 64-bit patterns (some of them nan), then
    both signs of: the first 1000 subnormals, 1001 values around the
    subnormal/normal boundary, every power of two and the powers of ten from
    1e-323 with both neighbours of each, the layout switch points and 0, inf
    and nan; shuffled with a fixed seed."""
    rng = np.random.default_rng(26)
    patterns = np.frombuffer(rng.bytes(8 << 20), np.uint64).view(np.float64)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             [float(f"1e{e}") for e in range(-323, 309)],
                             [1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0]])
    edges = np.concatenate([
        np.arange(1, 1001, dtype=np.uint64).view(np.float64),
        np.arange((1 << 52) - 500, (1 << 52) + 501, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), [0.0, np.inf, np.nan]])
    return rng.permutation(np.concatenate([patterns, edges, -edges]))


class TestWriterMatchesRepr:
    """The writer's bytes are ``repr``'s, value for value, whatever the
    shape of the ensemble and wherever its spans are formatted."""

    def test_one_path(self, repr_inputs):
        half = repr_inputs.size // 2
        times, values = repr_inputs[:half], repr_inputs[None, half:2 * half]
        _assert_repr_csv(_csv_text(times, values), times, values)

    def test_one_time(self, repr_inputs):
        # a row longer than a span is cut into pieces of one row
        values = repr_inputs[1:, None]
        assert values.size > sio._CSV_SPAN_VALUES
        _assert_repr_csv(_csv_text(repr_inputs[:1], values), repr_inputs[:1], values)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_pooled_and_in_process(self, repr_inputs, pools, monkeypatch):
        n_times = 1024
        n_paths = -(-sio._CSV_POOL_MIN_VALUES // n_times)
        times = repr_inputs[-n_times:]
        values = repr_inputs[:n_paths * n_times].reshape(n_paths, n_times)
        _assert_repr_csv(_csv_text(times, values), times, values)
        assert len(pools) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        _assert_repr_csv(_csv_text(times, values), times, values)
        assert len(pools) == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestPooledCsvWriter:
    """Spans of rows are formatted on forked worker processes; the text must
    be the in-process text, and no worker may outlive the write."""

    SPECIAL = (-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.1)

    @pytest.fixture
    def ensemble(self):
        # spans of many rows, and just enough values for the pool; special
        # values in the first span and in the last
        n_paths = 99
        n_times = -(-sio._CSV_POOL_MIN_VALUES // n_paths)
        values = np.random.default_rng(9).standard_normal((n_paths, n_times))
        values[0, :len(self.SPECIAL)] = self.SPECIAL
        values[-1, -len(self.SPECIAL):] = self.SPECIAL[::-1]
        return np.linspace(0.0, 1.0, n_times), values

    def test_pool_text_is_in_process_text(self, ensemble, pools, monkeypatch):
        times, values = ensemble
        pooled = _csv_text(times, values)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _csv_text(times, values) == pooled
        assert len(pools) == 1
        t_back, v_back = sio.read_ensemble_csv(io.StringIO(pooled))
        assert np.array_equal(t_back, times)
        nan = np.isnan(values)
        assert np.array_equal(np.isnan(v_back), nan)
        assert np.array_equal(v_back.view(np.uint64)[~nan], values.view(np.uint64)[~nan])

    def test_small_write_formats_in_process(self, ensemble, pools):
        # several spans, but too few values to pay for the workers
        times, values = ensemble
        _csv_text(times, values[:-1])
        assert pools == []

    def test_failed_handle_leaves_no_child(self, ensemble, pools):
        error = OSError(28, "No space left on device")

        class FullDisk(io.StringIO):
            n_writes = 0

            def write(self, text):
                self.n_writes += 1
                if self.n_writes == 3:  # the header, one span, then the failure
                    raise error
                return super().write(text)

        with pytest.raises(OSError) as info:
            sio.write_ensemble_csv(FullDisk(), *ensemble)
        assert info.value is error
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the workers ask Linux for a signal on their parent's death")
    def test_killed_writer_leaves_no_worker(self):
        # SIGTERM by pid reaches the writer alone, not its workers
        code = ("import io, multiprocessing, os, time, numpy as np\n"
                "from stablesim import io as sio\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "class Stalled(io.StringIO):\n"
                "    def write(self, text):\n"
                "        if not text.startswith('time'):\n"
                "            print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
                "            time.sleep(600)\n"
                "n = 32\n"
                "values = np.ones((sio._CSV_POOL_MIN_VALUES // n + 1, n))\n"
                "sio.write_ensemble_csv(Stalled(), np.arange(n, dtype=float), values)\n")
        writer = subprocess.Popen([sys.executable, "-c", code], env=_src_env(),
                                  stdout=subprocess.PIPE, text=True)
        try:
            workers = [int(pid) for pid in writer.stdout.readline().split()]
            writer.terminate()
            writer.wait(timeout=60)
        finally:
            writer.kill()
            writer.wait()
            writer.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []

    @pytest.mark.parametrize("where", ["task", "result"])
    def test_unpicklable_span_raises(self, where):
        # the pickling error reaches the caller and no worker is left; in a
        # child interpreter, so that a hang fails this test, not the suite
        code = ("import multiprocessing, os\n"
                "from stablesim import io as sio\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "square = lambda x: x * x\n"
                "def task(span, held):\n"
                "    return square\n"
                f"fn = {'square' if where == 'task' else 'task'}\n"
                "try:\n"
                "    with sio._span_results(fn, list(range(8)), (), True) as results:\n"
                "        list(results)\n"
                "except Exception as exc:\n"
                "    print(type(exc).__name__, len(multiprocessing.active_children()))\n")
        run = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                             text=True, timeout=60, check=True)
        assert run.stdout.split() == ["PicklingError", "0"]

    def test_daemonic_caller_writes_in_process(self, ensemble, pools, tmp_path):
        # a daemonic process may not have children
        path = tmp_path / "daemon.csv"
        proc = multiprocessing.get_context("fork").Process(
            target=_write_csv_file, args=(path, *ensemble), daemon=True)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert path.read_text() == _csv_text(*ensemble)

    def test_caller_with_another_thread_writes_in_process(self, ensemble, pools):
        # fork is unsafe while another thread runs
        texts = []
        thread = threading.Thread(target=lambda: texts.append(_csv_text(*ensemble)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert pools == []
        assert texts == [_csv_text(*ensemble)]

    def test_no_fork_start_method_writes_in_process(self, ensemble, pools, monkeypatch):
        want = _csv_text(*ensemble)
        assert len(pools) == 1
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _csv_text(*ensemble) == want
        assert len(pools) == 1

    def test_small_write_imports_no_multiprocessing(self):
        code = ("import sys, io, numpy as np\n"
                "from stablesim import io as sio\n"
                "sio.write_ensemble_csv(io.StringIO(), np.arange(30.0), np.ones((2, 30)))\n"
                "print('multiprocessing' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"


def _stream_read(text: str):
    """The stream path's (times, values), or its ValueError message."""
    try:
        return sio.read_ensemble_csv(io.StringIO(text, newline=None))
    except ValueError as exc:
        return str(exc)


def _file_read(path):
    try:
        with open(path) as fh:
            return sio.read_ensemble_csv(fh)
    except ValueError as exc:
        return str(exc)


def _same_read(a, b) -> bool:
    """Equal messages, or bit-equal (times, values)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestSpanCsvReader:
    """A regular file is read by byte spans of whole lines, on forked workers
    or in-process, into one output; the arrays and the first error must be
    the stream path's, which is the reader as it was before spans."""

    @pytest.fixture(params=["pool", "in-process"])
    def mode(self, request, pools, monkeypatch):
        """Spans of about 200 bytes, on two workers or in this process; the
        spans this process parses are counted in mode.spans."""
        monkeypatch.setattr(sio, "_CSV_SPAN_BYTES", 200)
        spans = []
        if request.param == "pool":
            monkeypatch.setattr(sio, "_CSV_READ_POOL_MIN_VALUES", 0)
        else:  # a closure cannot be pickled for a worker
            real = sio._read_span

            def read_span(span, held):
                spans.append(span)
                return real(span, held)

            monkeypatch.setattr(sio, "_read_span", read_span)
        return types.SimpleNamespace(name=request.param, pools=pools, spans=spans)

    def _check_path(self, mode):
        """The file went through spans, on the pool or in this process."""
        if mode.name == "pool":
            assert len(mode.pools) == 1
            assert multiprocessing.active_children() == []
        else:
            assert mode.pools == [] and len(mode.spans) > 2

    def test_special_values_equal_stream_read(self, mode, tmp_path):
        values = np.random.default_rng(4).standard_normal((3, 40))
        values[0, :len(TestPooledCsvWriter.SPECIAL)] = TestPooledCsvWriter.SPECIAL
        values[2, -len(TestPooledCsvWriter.SPECIAL):] = TestPooledCsvWriter.SPECIAL
        times = np.linspace(0.0, 1.0, 40)
        path = tmp_path / "special.csv"
        _write_csv_file(path, times, values)
        back = _file_read(path)
        self._check_path(mode)
        assert _same_read(back, _stream_read(path.read_text()))
        assert _same_read(back, (times, values))
        assert back[1].flags.c_contiguous and back[1].shape == (3, 40)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad, message", [
        ("0.5,1.0", "2 fields, the header has 3"),
        ("0.5,abc,1.0", "non-numeric field"),
    ], ids=["field-count", "non-numeric"])
    def test_first_error_is_stream_error(self, mode, tmp_path, where, bad, message):
        rows = [f"{j},1.5,-2.5e-3" for j in range(60)]
        index = {"first": 1, "middle": 30, "last": 58}[where]
        rows[index] = bad
        rows[59] = "9,1.5"  # a later error, in the last span, must not win
        text = "time,path_0,path_1\n" + "".join(r + "\n" for r in rows)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        got = _file_read(path)
        assert got == _stream_read(text)
        assert got.startswith(f"line {index + 2}: {message}")
        if mode.name == "in-process":  # the spans after the error are not parsed
            assert mode.spans[-1][0] <= text.index(bad) < sum(mode.spans[-1][:2])

    def test_blank_lines_and_crlf(self, pools, tmp_path, monkeypatch):
        rows = [f"{j / 4},{j}.5" for j in range(24)]
        for j in (0, 5, 6, 13, 23):  # blank lines, and a run of two
            rows[j] = rows[j] + "\n" + ["", "   ", "\t", "\xa0"][j % 4]
        for ending in ("\n", "\r\n", "\r"):
            text = "time,path_0" + ending + ending.join(rows) + ending + ending
            path = tmp_path / "blank.csv"
            path.write_bytes(text.encode())
            expected = _stream_read(text)
            assert len(expected[0]) == 24
            # every span size puts a blank line at a span boundary somewhere
            for span_bytes in range(8, 120, 7):
                monkeypatch.setattr(sio, "_CSV_SPAN_BYTES", span_bytes)
                assert _same_read(_file_read(path), expected)
                bad = text.replace("23.5", "abc")
                path.write_bytes(bad.encode())
                assert _file_read(path) == _stream_read(bad)
                assert _file_read(path).startswith("line 29: non-numeric field")
                path.write_bytes(text.encode())
            with monkeypatch.context() as pooled:
                pooled.setattr(sio, "_CSV_READ_POOL_MIN_VALUES", 0)
                assert _same_read(_file_read(path), expected)
        # with lone CRs the first LF ends a blank line, not the header, so
        # that file is read as a stream
        assert len(pools) == 2

    def test_other_handles_take_the_stream_path(self, tmp_path, monkeypatch):
        def no_spans(*args):
            raise AssertionError("read by spans")

        monkeypatch.setattr(sio, "_read_by_spans", no_spans)
        text = "time,path_0\n0.25,1.5\n0.5,2.5\n"
        expected = _stream_read(text)
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(text)
        with os.fdopen(read_fd) as fh:
            assert _same_read(sio.read_ensemble_csv(fh), expected)
        path = tmp_path / "preamble.csv"
        path.write_text("# written by a test\n" + text)
        with open(path) as fh:
            fh.readline()
            assert _same_read(sio.read_ensemble_csv(fh), expected)
        with open(path, "rb") as fh:  # a binary handle reads as before: not at all
            with pytest.raises(TypeError):
                sio.read_ensemble_csv(fh)

    def test_file_cut_while_read_raises(self, mode, tmp_path, monkeypatch):
        path = tmp_path / "cut.csv"
        _write_csv_file(path, np.arange(64.0), np.ones((3, 64)))
        text = path.read_text()
        real = sio._span_results

        def cut_then_parse(*args):  # after the count pass, before the parse
            os.truncate(path, text.index("\n", len(text) // 2) + 1)
            return real(*args)

        monkeypatch.setattr(sio, "_span_results", cut_then_parse)
        assert _file_read(path) == "the ensemble CSV changed while it was read"

    def test_file_read_leaves_handle_at_end(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("time,path_0\n0.25,1.5\n")
        with open(path) as fh:
            sio.read_ensemble_csv(fh)
            assert fh.read() == ""

    def test_small_read_imports_no_multiprocessing(self, tmp_path):
        path = tmp_path / "small.csv"
        _write_csv_file(path, np.arange(30.0), np.ones((2, 30)))
        code = ("import sys, numpy as np\n"
                "from stablesim import io as sio\n"
                f"with open({str(path)!r}) as fh:\n"
                "    times, values = sio.read_ensemble_csv(fh)\n"
                "assert values.shape == (2, 30)\n"
                "print('multiprocessing' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"

    def test_stdin_file_read_on_workers(self, tmp_path):
        # a worker's multiprocessing start closes its sys.stdin, but not
        # descriptor 0, which the workers read
        path = tmp_path / "stdin.csv"
        times, values = np.arange(64.0), np.random.default_rng(8).standard_normal((4, 64))
        _write_csv_file(path, times, values)
        code = ("import os, sys, numpy as np\n"
                "from stablesim import io as sio\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "sio._CSV_SPAN_BYTES, sio._CSV_READ_POOL_MIN_VALUES = 256, 0\n"
                "times, values = sio.read_ensemble_csv(sys.stdin)\n"
                "sys.stdout.buffer.write(times.tobytes() + values.tobytes())\n")
        with open(path) as stdin:
            run = subprocess.run([sys.executable, "-c", code], env=_src_env(), stdin=stdin,
                                 capture_output=True, timeout=120, check=True)
        assert run.stdout == times.tobytes() + values.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the workers ask Linux for a signal on their parent's death")
    def test_killed_reader_leaves_no_worker(self, tmp_path):
        # SIGTERM by pid reaches the reader alone, not its workers
        path = tmp_path / "stall.csv"
        _write_csv_file(path, np.arange(64.0), np.ones((4, 64)))
        code = ("import os, time\n"
                "from stablesim import io as sio\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "sio._CSV_SPAN_BYTES, sio._CSV_READ_POOL_MIN_VALUES = 256, 0\n"
                "def stall(span, held):\n"
                "    os.write(1, b'%d\\n' % os.getpid())\n"
                "    time.sleep(600)\n"
                "sio._read_span = stall\n"
                f"with open({str(path)!r}) as fh:\n"
                "    sio.read_ensemble_csv(fh)\n")
        reader = subprocess.Popen([sys.executable, "-c", code], env=_src_env(),
                                  stdout=subprocess.PIPE, text=True)
        try:
            workers = {int(reader.stdout.readline()) for _ in range(2)}
            reader.terminate()
            reader.wait(timeout=60)
        finally:
            reader.kill()
            reader.wait()
            reader.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []


def _src_env() -> dict:
    """The environment, with this package's source first on the import path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def specdir(tmp_path):
    paths = {}
    docs = {
        "lfsm": {"family": "lfsm", "alpha": 1.5, "hurst": 0.7, "c_plus": 1.0, "c_minus": 0.0},
        "bad": {"family": "truncated_fractional", "alpha": 1.5, "a": 0.5, "b": 0.9},
        "q1": {"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
               "atoms": [{"b": [2.0, 0.0], "weight": 1.0}]},
        "q2": {"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
               "atoms": [{"b": [1.0, 0.0], "weight": 2.0 ** 1.5}]},
        "q3": {"family": "mixed_lfsm", "alpha": 1.5, "hurst": 0.7,
               "atoms": [{"b": [0.0, 1.0], "weight": 1.0}]},
        "rot1": {"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
                 "harmonics": [{"k": 1, "cos": 1.0, "sin": 0.0}], "constant": 0.0},
        "rot2": {"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
                 "harmonics": [{"k": 1, "cos": -1.0, "sin": 0.0}], "constant": 0.5},
    }
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{")
    paths["not_utf8"] = str(tmp_path / "not_utf8.json")
    paths["dir"] = tmp_path
    return paths


class TestCli:
    def test_simulate_writes_csv_and_meta(self, specdir):
        out = str(specdir["dir"] / "paths.csv")
        rc = main(["simulate", "--spec", specdir["lfsm"], "--n-paths", "20",
                   "--t", "0:1:17", "--seed", "42", "--out", out])
        assert rc == 0
        with open(out) as fh:
            times, values = sio.read_ensemble_csv(fh)
        assert times.size == 17 and values.shape == (20, 17)
        meta = json.loads(Path(out + ".meta.json").read_text())
        assert meta["seed"] == 42 and meta["schema_version"] == 1
        assert meta["spec"]["family"] == "lfsm"

    def test_simulate_reproducible_bytes(self, specdir):
        out1 = str(specdir["dir"] / "p1.csv")
        out2 = str(specdir["dir"] / "p2.csv")
        for out in (out1, out2):
            assert main(["simulate", "--spec", specdir["lfsm"], "--n-paths", "10",
                         "--t", "0:1:9", "--seed", "7", "--out", out]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_inadmissible_spec_exit_2(self, specdir, capsys):
        rc = main(["simulate", "--spec", specdir["bad"], "--n-paths", "5",
                   "--t", "0:1:5", "--out", str(specdir["dir"] / "x.csv")])
        assert rc == 2
        assert "b < alpha*a" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message, env_seed", [
        (["--t", "bad"], "bad grid spec", None),
        (["--t", "1:0:5"], "strictly increasing", None),
        (["--t", "0:1:5", "--n-paths", "-3"], "n_paths", None),
        (["--t", "0:1:5", "--threads", "0"], "threads", None),
        (["--t", "0:1:5", "--level", "-1"], "level", None),
        (["--t", "0:1:5", "--seed", "-1"], "seed", None),
        (["--t", "0:1:5", "--seed", str(2 ** 64)], "seed", None),
        (["--t", "0:1:5"], "STABLESIM_SEED", "abc"),
        (["--t", "nan:1:5"], "bad grid spec", None),
        (["--t", "0.1:inf:5"], "bad grid spec", None),
    ], ids=["t-bad", "t-reversed", "n-paths-negative", "threads-zero", "level-negative",
            "seed-negative", "seed-too-large", "env-seed-not-integer", "t-nan", "t-inf"])
    def test_simulate_bad_arguments_exit_2(self, specdir, capsys, monkeypatch,
                                           args, message, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("STABLESIM_SEED", env_seed)
        out = specdir["dir"] / "x.csv"
        rc = main(["simulate", "--spec", specdir["lfsm"], *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["classify", "--flow", "rotation", "--n-points", "0"], "--n-points"),
        (["classify", "--flow", "rotation", "--n-points", "-1"], "--n-points"),
        (["classify", "--flow", "translation", "--alpha", "0"], "--alpha"),
        (["region", "--alpha", "3", "--a", "0.3:0.7:3", "--b", "0.2:0.9:3"], "--alpha"),
        (["region", "--alpha", "1.5", "--a", "0:1:0", "--b", "0.2:0.9:3"], "bad grid spec"),
        (["region", "--alpha", "1.5", "--a", "0.3:0.7:3", "--b", "0.2:0.9:3",
          "--margin", "nan"], "margin"),
        (["region", "--alpha", "1.5", "--a", "0.3:0.7:3", "--b", "0.2:0.9:3",
          "--margin", "inf"], "margin"),
        (["region", "--alpha", "1.5", "--a", "0.3:0.7:3", "--b", "0.2:0.9:3",
          "--margin", "10"], "no grid point to score"),
        (["classify", "--flow", "rotation", "--seed", "-1"], "seed"),
        (["classify", "--flow", "rotation", "--seed", str(2 ** 64)], "seed"),
        (["region", "--alpha", "1.5", "--a", "nan:1:3", "--b", "0.2:0.9:3"], "bad grid spec"),
    ], ids=["classify-zero-points", "classify-negative-points", "classify-alpha-0",
            "region-alpha-3", "region-empty-grid", "region-margin-nan", "region-margin-inf",
            "region-nothing-scored", "classify-seed-negative", "classify-seed-too-large",
            "region-a-nan"])
    def test_bad_classify_and_region_arguments_exit_2(self, specdir, capsys, args, message):
        out = specdir["dir"] / "o.out"
        rc = main([*args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, spec, args, message", [
        ("simulate", "not_utf8", ["--t", "0:1:5"], "can't decode"),
        ("verify", "not_utf8", [], "can't decode"),
        ("verify", "lfsm", ["--checks", "mc", "--n-paths", "0"], "n_paths"),
        ("verify", "lfsm", ["--checks", "mc", "--seed", "-1"], "seed"),
        ("verify", "lfsm", ["--seed", "-1"], "seed"),
        ("verify", "lfsm", ["--seed", str(2 ** 64)], "seed"),
        ("verify", "lfsm", ["--checks", ","], "no checks given"),
        ("verify", "lfsm", ["--checks", "si,nope"], "unknown check 'nope'"),
    ], ids=["simulate-not-utf8", "verify-not-utf8", "verify-mc-zero-paths",
            "verify-mc-seed-negative", "verify-seed-negative", "verify-seed-too-large",
            "verify-no-checks", "verify-unknown-check-after-known"])
    def test_bad_spec_file_and_verify_arguments_exit_2(self, specdir, capsys,
                                                       command, spec, args, message):
        out = specdir["dir"] / "o.out"
        rc = main([command, "--spec", specdir[spec], *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--spec", "{lfsm}", "--t", "0:1:5", "--out", "{dir}/missing/x.csv"],
        ["region", "--alpha", "1.5", "--a", "0.3:0.7:3", "--b", "0.2:0.9:3",
         "--out", "{dir}/missing/r.csv"],
        ["transform", "--input", "{dir}/nope.csv", "--op", "masani-inverse",
         "--out", "{dir}/o.csv"],
    ], ids=["simulate-unwritable", "region-unwritable", "transform-missing-input"])
    def test_io_failure_exit_3(self, specdir, capsys, args):
        argv = [a.format(lfsm=specdir["lfsm"], dir=specdir["dir"]) for a in args]
        assert main(argv) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_missing_file_exit_3(self, specdir):
        rc = main(["simulate", "--spec", str(specdir["dir"] / "nope.json"),
                   "--n-paths", "5", "--t", "0:1:5", "--out", str(specdir["dir"] / "x.csv")])
        assert rc == 3

    def test_verify_pass_and_report(self, specdir, capsys):
        rep = str(specdir["dir"] / "rep.json")
        rc = main(["verify", "--spec", specdir["lfsm"], "--checks", "ss,kernel-identity",
                   "--out", rep])
        assert rc == 0
        doc = json.loads(Path(rep).read_text())
        assert all(r["passed"] for r in doc["reports"])
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ss.catalog_specs(), ids=repr)
    def test_verify_scaling_passes_on_every_catalog_spec(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(sio.spec_to_dict(spec)))
        rc = main(["verify", "--spec", str(path), "--checks", "scaling"])
        assert rc == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert line.startswith("PASS scaling_maps: max residual ")

    def test_classify_rotation_conservative(self, specdir, capsys):
        rc = main(["classify", "--flow", "rotation", "--alpha", "1.5",
                   "--n-points", "6", "--out", str(specdir["dir"] / "c.json")])
        assert rc == 0
        assert "conservative" in capsys.readouterr().out
        doc = json.loads((specdir["dir"] / "c.json").read_text())
        assert doc["counts"] == {"conservative": 6}
        assert all("trace" in p for p in doc["points"])

    def test_region_small_grid(self, specdir, capsys):
        out = str(specdir["dir"] / "region.csv")
        rc = main(["region", "--alpha", "1.5", "--a", "0.3:0.7:3",
                   "--b", "0.2:0.9:3", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "a,b,verdict,value"
        assert len(lines) == 10

    def test_region_accepts_negative_grid_bounds(self, specdir):
        out = str(specdir["dir"] / "region_neg.csv")
        rc = main(["region", "--alpha", "1.5", "--a", "-0.7:-0.3:3",
                   "--b", "-0.6:-0.3:3", "--out", out])
        assert rc == 0
        assert Path(out).read_text().startswith("a,b,verdict,value")

    def test_identify_mixed_equal_and_distinct(self, specdir, capsys):
        rc = main(["identify", "--spec1", specdir["q1"], "--spec2", specdir["q2"]])
        assert rc == 0 and "equal in law" in capsys.readouterr().out
        rc = main(["identify", "--spec1", specdir["q1"], "--spec2", specdir["q3"]])
        assert rc == 0 and "distinct" in capsys.readouterr().out

    def test_main_reads_argv_and_runs_as_module(self, specdir, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["stablesim", "identify", "--spec1", specdir["q1"],
                                          "--spec2", specdir["q2"]])
        assert main() == 0
        with warnings.catch_warnings():
            # stablesim.cli is imported already; running it again as __main__ is the point
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("stablesim.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == "equal in law\nequal in law\n"

    def test_identify_zero_atom_equal_in_law(self, specdir, capsys):
        # q1 with a zero atom added is admissible and has q1's law
        path = specdir["dir"] / "q1_zero.json"
        doc = json.loads(Path(specdir["q1"]).read_text())
        doc["atoms"].append({"b": [0.0, 0.0], "weight": 0.5})
        path.write_text(json.dumps(doc))
        rc = main(["identify", "--spec1", str(path), "--spec2", specdir["q1"]])
        assert rc == 0 and capsys.readouterr().out == "equal in law\n"

    def test_identify_mixed_sphere_measures(self, specdir):
        # b = (2, 0) of weight 1 and b = (1, 0) of weight 2^1.5 both land on
        # the directions (+-1, 0) with weight 2^1.5 each
        out = str(specdir["dir"] / "m.json")
        rc = main(["identify", "--spec1", specdir["q1"], "--spec2", specdir["q2"],
                   "--out", out])
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        for key in ("sphere_measure_1", "sphere_measure_2"):
            atoms = sorted((a["direction"], a["weight"]) for a in doc[key])
            assert [d for d, _ in atoms] == [[-1.0, 0.0], [1.0, 0.0]]
            assert [w for _, w in atoms] == pytest.approx([2.0 ** 1.5] * 2, rel=1e-12)
        assert doc["equal_in_law"] and doc["ray_1"] and doc["ray_2"]

    @pytest.mark.parametrize("spec1, spec2", [("lfsm", "lfsm"), ("q1", "rot1"), ("rot1", "q1")],
                             ids=["lfsm-lfsm", "mixed-rotating", "rotating-mixed"])
    def test_identify_unsupported_pair_exit_2(self, specdir, capsys, spec1, spec2):
        out = specdir["dir"] / "w.json"
        rc = main(["identify", "--spec1", specdir[spec1], "--spec2", specdir[spec2],
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        (line,) = captured.err.strip().splitlines()
        assert line == ("stablesim identify: identify supports two mixed_lfsm specs "
                        "or two rotating_average specs")

    def test_identify_rotating_witness(self, specdir):
        out = str(specdir["dir"] / "w.json")
        rc = main(["identify", "--spec1", specdir["rot1"], "--spec2", specdir["rot2"],
                   "--out", out])
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        assert doc["equal_in_law"] and "witness" in doc

    def test_transform_round_trip(self, specdir):
        csv_in = str(specdir["dir"] / "geo.csv")
        rc = main(["simulate", "--spec", specdir["lfsm"], "--n-paths", "4",
                   "--t", "0.25:4:17g", "--seed", "1", "--out", csv_in])
        assert rc == 0
        mid = str(specdir["dir"] / "stat.csv")
        back = str(specdir["dir"] / "back.csv")
        assert main(["transform", "--input", csv_in, "--op", "lamperti-to-stationary",
                     "--hurst", "0.7", "--out", mid]) == 0
        assert main(["transform", "--input", mid, "--op", "lamperti-from-stationary",
                     "--hurst", "0.7", "--out", back]) == 0
        with open(csv_in) as fh:
            t0, v0 = sio.read_ensemble_csv(fh)
        with open(back) as fh:
            t1, v1 = sio.read_ensemble_csv(fh)
        assert np.max(np.abs(v1 - v0)) < 1e-12
        assert np.max(np.abs(t1 - t0)) < 1e-12

    @pytest.mark.parametrize("args, message", [
        (["--op", "lamperti-to-stationary", "--hurst", "nan"], "hurst"),
        (["--op", "lamperti-from-stationary", "--hurst", "inf"], "hurst"),
        (["--op", "masani-forward", "--history", "-5"], "history"),
        (["--op", "masani-forward", "--history", "nan"], "history"),
    ], ids=["lamperti-to-hurst-nan", "lamperti-from-hurst-inf", "masani-history-negative",
            "masani-history-nan"])
    def test_transform_bad_arguments_exit_2(self, specdir, capsys, args, message):
        csv_in = str(specdir["dir"] / "geo.csv")
        assert main(["simulate", "--spec", specdir["lfsm"], "--n-paths", "4",
                     "--t", "0.25:4:17g", "--seed", "1", "--out", csv_in]) == 0
        capsys.readouterr()
        out = specdir["dir"] / "t.csv"
        rc = main(["transform", "--input", csv_in, *args, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    def test_transform_nan_time_exit_2(self, specdir, capsys):
        # a nan time passed every grid check, and masani-inverse wrote nan
        csv_in = specdir["dir"] / "nan.csv"
        csv_in.write_text("time,path_0\n0.0,1.0\nnan,2.0\n1.0,3.0\n")
        out = specdir["dir"] / "t.csv"
        rc = main(["transform", "--input", str(csv_in), "--op", "masani-inverse",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        (line,) = captured.err.strip().splitlines()
        assert line == ("stablesim transform: times must be a strictly increasing 1-d grid "
                        "of at least 2 finite points")

    def test_transform_masani_round_trip(self, specdir, capsys):
        # masani-forward, then masani-inverse, through main: the round trip
        # is first order in dt, as TestMasaniRoundTrip pins for the library
        spec = specdir["dir"] / "linear_motion.json"
        spec.write_text(json.dumps({"family": "linear_motion", "alpha": 1.5}))
        errs = []
        for n in (1409, 2817, 5633):  # dt = 2^-6, 2^-7, 2^-8 on [-20, 2]
            x, y, back = (str(specdir["dir"] / f"{name}{n}.csv") for name in ("x", "y", "back"))
            assert main(["simulate", "--spec", str(spec), "--n-paths", "10", f"--t=-20:2:{n}",
                         "--seed", "5", "--out", x]) == 0
            assert main(["transform", "--input", x, "--op", "masani-forward", "--out", y]) == 0
            assert "history truncation bound" in capsys.readouterr().out
            assert main(["transform", "--input", y, "--op", "masani-inverse", "--out", back]) == 0
            with open(x) as fh:
                t0, v0 = sio.read_ensemble_csv(fh)
            with open(back) as fh:
                t1, v1 = sio.read_ensemble_csv(fh)
            keep = t0 >= -1e-12
            assert np.array_equal(t1, t0[keep])
            errs.append(np.max(np.abs(v1 - v0[:, keep])))
        for r in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 1.7 <= r <= 2.3

    def test_transform_requires_hurst(self, specdir, capsys):
        rc = main(["transform", "--input", "whatever.csv",
                   "--op", "lamperti-to-stationary", "--out", "o.csv"])
        assert rc == 2
