"""Tests for corpus CSV ingestion, subset selection, and RMSE."""

import csv
import dataclasses
import hashlib
import io
import os
import re
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rankcal import dataset
from rankcal.dataset import (
    SubsetSpec,
    load_corpus,
    loads_corpus,
    parse_subset_spec,
    rmse,
    save_corpus,
    select_subset,
)
from rankcal.errors import CorpusFormatError, EmptyCorpus, InsufficientVariety
from rankcal.model import PixelPairSet
from rankcal.modelfile import _fmt
from rankcal.simulate import ToneSpec, make_camera, make_corpus, make_exposures, make_illuminants

from support import loads_corpus_reference

HEADER = "camera,illuminant,exposure,patch,raw_r,raw_g,raw_b,jpeg_r,jpeg_g,jpeg_b,white_level"


class TestLoadCorpus:
    def test_three_rows_normalized(self):
        text = "\n".join([
            HEADER,
            "cam,i0,e0,p0,100,200,300,50,100,150,1000",
            "cam,i0,e0,p1,10,20,30,5,10,15,1000",
            "cam,i1,e1,p2,1,2,3,1,2,3,1000",
        ]) + "\n"
        corpus = loads_corpus(text)
        assert len(corpus) == 3
        assert np.allclose(corpus.raw[0], [0.1, 0.2, 0.3])
        assert np.allclose(corpus.rendered[0], [50 / 255, 100 / 255, 150 / 255])
        assert corpus.illuminant.tolist() == ["i0", "i0", "i1"]
        assert not corpus.saturated.any()

    def test_jpeg_255_flagged_saturated(self):
        text = "\n".join([
            HEADER,
            "cam,i0,e0,p0,100,200,300,255,100,150,1000",
            "cam,i0,e0,p1,10,20,30,5,10,15,1000",
        ]) + "\n"
        corpus = loads_corpus(text)
        assert corpus.saturated.tolist() == [True, False]

    def test_jpeg_0_flagged_saturated(self):
        text = HEADER + "\ncam,i0,e0,p0,100,200,300,0,100,150,1000\n"
        assert loads_corpus(text).saturated.all()

    def test_raw_near_white_level_flagged(self):
        text = HEADER + "\ncam,i0,e0,p0,996,200,300,50,100,150,1000\n"
        assert loads_corpus(text).saturated.all()

    def test_12_bit_white_level_flags_normalized_raw(self):
        # 4075 / 4095 = 0.99512 reaches the flagging fraction, 4074 / 4095
        # = 0.99487 does not; a raw value above the white level is flagged
        text = "\n".join([
            HEADER,
            "cam,i0,e0,p0,4075,200,300,50,100,150,4095",
            "cam,i0,e0,p1,4074,200,300,50,100,150,4095",
            "cam,i0,e0,p2,10,5000,300,50,100,150,4095",
        ]) + "\n"
        corpus = loads_corpus(text)
        assert corpus.saturated.tolist() == [True, False, True]
        assert corpus.raw[1, 0] == 4074 / 4095 and corpus.raw[2, 1] > 1.0
        assert len(corpus.unsaturated()) == 1

    def test_comments_and_blank_lines_skipped(self):
        text = "\n".join([
            "# produced for a unit test",
            HEADER,
            "",
            "# a comment row",
            "cam,i0,e0,p0,100,200,300,50,100,150,1000",
        ]) + "\n"
        assert len(loads_corpus(text)) == 1

    def test_malformed_row_reports_line_number(self):
        text = HEADER + "\ncam,i0,e0,p0,100,200\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            loads_corpus(text)

    def test_non_numeric_value_reports_line_number(self):
        text = HEADER + "\ncam,i0,e0,p0,abc,200,300,50,100,150,1000\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            loads_corpus(text)

    def test_non_finite_rejected(self):
        text = HEADER + "\ncam,i0,e0,p0,nan,200,300,50,100,150,1000\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            loads_corpus(text)

    @pytest.mark.parametrize("fields", [
        "100,200,300,inf,100,150,1000",
        "100,200,300,50,100,150,-inf",
        "100,200,Infinity,50,100,150,1000",
        "100,200,300,50,NaN,150,1000",
    ])
    def test_non_finite_in_any_column_rejected(self, fields):
        text = HEADER + "\ncam,i0,e0,p0,100,200,300,50,100,150,1000\ncam,i0,e0,p1," + fields + "\n"
        with pytest.raises(CorpusFormatError, match="line 3: non-finite"):
            loads_corpus(text)

    @pytest.mark.parametrize("fields, message", [
        ("100,200,300,256,100,150,1000", "values out of range"),
        ("100,200,300,50,-1,150,1000", "values out of range"),
        ("100,-0.5,300,50,100,150,1000", "values out of range"),
        ("100,200,300,50,100,150,0", "white_level must be positive"),
        ("100,200,300,50,100,150,-4095", "white_level must be positive"),
    ])
    def test_out_of_range_value_names_line(self, fields, message):
        text = HEADER + "\ncam,i0,e0,p0,100,200,300,50,100,150,1000\ncam,i0,e0,p1," + fields + "\n"
        with pytest.raises(CorpusFormatError, match=f"line 3: {message}"):
            loads_corpus(text)

    def test_misspelled_header_rejected(self):
        with pytest.raises(CorpusFormatError, match="line 2: expected header"):
            loads_corpus("# note\n" + HEADER.replace("patch", "pitch")
                         + "\ncam,i0,e0,p0,1,2,3,4,5,6,1000\n")

    def test_header_only_is_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            loads_corpus(HEADER + "\n")

    def test_missing_header_rejected(self):
        with pytest.raises(CorpusFormatError, match="header"):
            loads_corpus("cam,i0,e0,p0,1,2,3,4,5,6,1000\n")

    def test_roundtrip_of_simulated_corpus(self, tmp_path):
        camera = make_camera(seed=3, delta=0.2, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="affine", quantize=True)
        corpus = make_corpus(camera, 60, illuminants=make_illuminants(2, 1),
                             exposures=make_exposures(3), rng_seed=9)
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        back = load_corpus(path)
        assert len(back) == len(corpus)
        assert np.abs(back.raw - corpus.raw).max() <= 1e-12
        assert np.abs(back.rendered - corpus.rendered).max() <= 1e-12
        assert back.saturated.tolist() == corpus.saturated.tolist()
        assert back.camera.tolist() == corpus.camera.tolist()
        assert back.illuminant.tolist() == corpus.illuminant.tolist()
        assert back.exposure.tolist() == corpus.exposure.tolist()
        assert back.patch.tolist() == corpus.patch.tolist()

    def test_simulated_flags_survive_save_and_load(self, tmp_path):
        camera = make_camera(seed=4, delta=0.2, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="affine", quantize=True)
        corpus = make_corpus(camera, 80, illuminants=make_illuminants(2, 3),
                             exposures=make_exposures(5), rng_seed=6)
        raw_clipped = (corpus.raw >= 0.995).any(axis=1)
        rendered_clipped = ((corpus.rendered == 0.0) | (corpus.rendered == 1.0)).any(axis=1)
        assert (raw_clipped & ~rendered_clipped).any()
        assert rendered_clipped.any() and not corpus.saturated.all()
        path = tmp_path / "c.csv"
        save_corpus(corpus, path)
        assert load_corpus(path).saturated.tolist() == corpus.saturated.tolist()


    def test_error_names_physical_line_after_multiline_tag(self):
        text = HEADER + '\n"cam\nA",i0,e0,p0,1,2,3,4,5,6,1000\ncam,i0,e0,p1,abc,2,3,4,5,6,1000\n'
        with pytest.raises(CorpusFormatError, match="line 4: non-numeric value"):
            loads_corpus(text)

    @pytest.mark.parametrize("tag", ["cam", '"c,am"'])
    def test_reads_a_pipe(self, tag):
        read, write = os.pipe()
        os.write(write, f"{HEADER}\n{tag},i0,e0,p0,1,2,3,4,5,6,1000\n".encode())
        os.close(write)
        try:
            corpus = load_corpus(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert corpus.camera.tolist() == [tag.strip('"')]

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("before, line", [
        (b"", 2), (b"# caf\xe9 comments are skipped\n", 3),
        (b'"cam\nA",i0,e0,p0,1,2,3,4,5,6,1000\n', 4),
    ])
    def test_byte_not_utf8_names_file_and_line(self, tmp_path, source, before, line):
        blob = (HEADER.encode() + b"\n" + before
                + b"caf\xe9,i0,e0,p1,1,2,3,4,5,6,1000\ncam,i0,e0,p2,1,2,3,4,5,6,1000\n")
        if source == "file":
            path = tmp_path / "latin1.csv"
            path.write_bytes(blob)
        else:
            read, write = os.pipe()
            os.write(write, blob)
            os.close(write)
            path = f"/dev/fd/{read}"
        try:
            with pytest.raises(CorpusFormatError,
                               match=f"^{re.escape(str(path))}: line {line}: "
                                     r"not UTF-8 text \(byte 0xe9\)$"):
                load_corpus(path)
        finally:
            if source == "pipe":
                os.close(read)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_byte_order_mark_is_skipped(self, tmp_path, quoted):
        # as Excel's "CSV UTF-8" and Python's utf-8-sig write a corpus
        tag = '"c,am"' if quoted else "cam"
        text = f"{HEADER}\n{tag},i0,e0,p0,1,2,3,4,5,6,1000\ncam,i1,e0,p1,7,8,9,1,2,3,1000\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = load_corpus(plain)
        assert_same_pairs(load_corpus(marked), want)
        assert_same_pairs(loads_corpus("\ufeff" + text), want)

    def test_quoted_corpus_loads_the_same_with_or_without_rows(self, tmp_path):
        # the csv reader's path builds the echo texts only when asked for
        text = HEADER + "\n" + "".join(
            f'"cam {i % 3}, unit",i{i % 2},e0,"p""{i}",{i / 7!r},0.5,1,{i % 256},3,4,1023\n'
            for i in range(3000))
        path = tmp_path / "quoted.csv"
        path.write_text(text, encoding="utf-8")
        want, texts, white = loads_corpus_reference(text)
        rows = []
        assert_same_pairs(load_corpus(path), want)
        assert_same_pairs(load_corpus(path, rows), want)
        assert_same_rows(rows, texts, white)

    @pytest.mark.parametrize("rows", [None, []])
    @pytest.mark.parametrize("tag", [b'"caf\xe9"', b"caf\xe9"])
    def test_byte_not_utf8_in_a_quoted_block_names_its_line(self, tmp_path, rows, tag):
        path = tmp_path / "c.csv"
        path.write_bytes(HEADER.encode() + b'\n"cam",i0,e0,p0,1,2,3,4,5,6,1000\n'
                         + tag + b",i0,e0,p1,1,2,3,4,5,6,1000\n")
        with pytest.raises(CorpusFormatError,
                           match=r": line 3: not UTF-8 text \(byte 0xe9\)$"):
            load_corpus(path, rows)

    def test_field_over_csv_limit_raises_as_row_parser(self):
        text = HEADER + "\ncam,i0,e0," + "p" * 80 + ",1,2,3,4,5,6,1000\n"
        limit = csv.field_size_limit(64)
        try:
            with pytest.raises(CorpusFormatError,
                               match=r"^<string>: line 2: field larger than field limit \(64\)$"):
                loads_corpus(text)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("before, message", [
        (HEADER.replace("patch", "pitch"), "line 1: expected header"),
        (HEADER + "\ncam,i0,e0,p0,1,x,3,4,5,6,1000", "line 2: non-numeric value"),
        (HEADER + "\ncam,i0,e0,p0,1,2,3,4,5,6,1000", "line 3: new-line character"),
    ])
    def test_csv_error_comes_after_earlier_faults(self, before, message):
        # the csv reader refuses the CR inside an unquoted field of the
        # last line, in the same block as the earlier fault
        text = before + "\nc\rA,i0,e0,p1,1,2,3,4,5,6,1000\n"
        with pytest.raises(CorpusFormatError, match=f"^<string>: {message}"):
            loads_corpus(text)


def _numbers(low: float, high: float):
    """Decimal text of values in [low, high] as writers spell them, at
    times with whitespace around."""
    number = st.one_of(
        st.floats(low, high).map(lambda v: "%.17g" % v),
        st.floats(low, high).map(repr),
        st.integers(int(low), int(high)).map(str),
        st.integers(int(low), int(high)).map(lambda v: f"{v / 10:.1e}"),
    )
    space = st.sampled_from(["", "", " ", "\t"])
    return st.tuples(space, number, space).map("".join)


BAD_NUMBERS = st.sampled_from(["abc", "", "nan", "-inf", "1e400", "-1", "-1e-300", "256",
                               "255.00001", "0x10", "1_0", "\u0663", "-0", "0", "1e-320"])


@st.composite
def corpus_texts(draw):
    """Corpus text with in-range numbers and plain tags, drawn at times
    with what only the row parser reads (quoted tags; commas, quotes, NULs
    or CRs in tags; CR line ends) and at times with one fault (a bad or
    out-of-range value, a missing or extra field, a tag holding a byte
    that is not UTF-8, read as its escape, or a wrong header)."""
    rarely = st.sampled_from([False, False, True])
    quoted, odd = draw(rarely), draw(rarely)
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    tag = st.text(st.sampled_from(list("ab7 #-") + (list('",\x00\r') if odd else [])),
                  max_size=4)
    if quoted:
        tag = st.one_of(tag, tag.map(lambda t: '"' + t.replace('"', '""') + '"'))
    columns = [_numbers(0, 2)] * 3 + [_numbers(0, 255)] * 3 + [_numbers(1, 65535)]
    rows = draw(st.lists(st.tuples(*[tag] * 4, *columns).map(list), min_size=1, max_size=10))
    fault = draw(st.sampled_from([None, None, "value", "short", "long", "byte", "header"]))
    if rows and fault in ("value", "short", "long", "byte"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "value":
            row[draw(st.integers(4, 10))] = draw(BAD_NUMBERS)
        elif fault == "byte":
            row[draw(st.integers(0, 3))] += "\udce9"
        elif fault == "short":
            row.pop()
        else:
            row.append("9")
    lines = [",".join(row) for row in rows]
    skipped = st.one_of(st.sampled_from(["", "# note", "  #, 1", " #b,"]),
                        tag.map(lambda t: "#" + t))
    for position, line in draw(st.lists(st.tuples(st.integers(0, 10), skipped), max_size=4)):
        lines.insert(position, line)
    header = draw(st.sampled_from([HEADER, " " + HEADER.replace(",", " , ")]))
    if fault == "header":
        header = header.replace("patch", "pitch")
    end = draw(st.sampled_from([newline, ""]))
    return newline.join([header] + lines) + end


def assert_same_pairs(got: PixelPairSet, want: PixelPairSet) -> None:
    assert got.raw.tobytes() == want.raw.tobytes()
    assert got.rendered.tobytes() == want.rendered.tobytes()
    assert got.saturated.tolist() == want.saturated.tolist()
    for name in ("camera", "illuminant", "exposure", "patch"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


def assert_same_rows(rows: list, texts: list, white: np.ndarray) -> None:
    assert [t for block, _ in rows for t in block] == texts
    assert np.concatenate([w for _, w in rows]).tobytes() == white.tobytes()


class TestFastParse:
    @settings(max_examples=300, deadline=None)
    @given(text=corpus_texts())
    @example(text=HEADER + "\nc,i,e,p,0,0,0,1,1,1,1e-320\nc,i,e,p,0,1,0,1,1,1,1e-320\n")
    @example(text=HEADER + '\n"c",i,e,p,0,0,0,1,1,1,1e-320\nc,i,e,p,0,1,0,1,1,1,1e-320\n')
    def test_matches_row_parser(self, text):
        try:
            want, texts, white = loads_corpus_reference(text)
        except Exception as exc:
            event("rejected")
            with pytest.raises(type(exc)) as got:
                loads_corpus(text)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        event("csv reader" if re.search('["\r\x00]', text) else "plain")
        assert_same_pairs(loads_corpus(text), want)
        rows = []
        dataset._parse_corpus(io.StringIO(text), "<string>", rows)
        assert_same_rows(rows, texts, white)

    def test_rows_split_over_blocks_match_row_parser(self, monkeypatch):
        # the header, a comment and a blank line share the first block
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 7)
        text = (HEADER + "\n# between blocks\n\n"
                + "".join(f"c,i{i % 3},e0,#p{i},{i / 7!r},0,1e-3,{i % 256},0,255,1023\n"
                          for i in range(40)))
        want, texts, white = loads_corpus_reference(text)
        rows = []
        assert_same_pairs(dataset._parse_corpus(io.StringIO(text), "<string>", rows), want)
        assert_same_rows(rows, texts, white)
        assert [len(block) for block, _ in rows][:2] == [4, 7]

    @pytest.mark.parametrize("fault, message", [
        (None, None), ("c,i0,e0,p,1,x,3,4,5,6,1023", "line 27: non-numeric value"),
    ])
    def test_single_pass_over_a_pipe(self, monkeypatch, fault, message):
        # blocks of 7 lines: lines 1-21 are plain, and the quoted tag over
        # lines 24-25 hands the fourth block (lines 22-28) and the rest to
        # the csv reader; a pipe cannot be read a second time
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 7)
        rows = [f"c,i{i % 2},e{i % 3},p{i},{i / 3!r},1,2,3,4,5,1023" for i in range(40)]
        if fault:
            rows[23] = fault
        text = "\n".join([HEADER] + rows[:22] + ['"c\nA",i0,e0,q,1,2,3,4,5,6,1023']
                         + rows[22:]) + "\n"
        try:
            want = loads_corpus_reference(text)
        except CorpusFormatError as exc:
            assert str(exc) == f"<string>: {message}"
            want = None
        first_lines = []

        def spy(lines, reader=csv.reader):
            lines = iter(lines)
            first = next(lines)
            first_lines.append(first)
            return reader(chain([first], lines))

        monkeypatch.setattr(csv, "reader", spy)
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        got = []
        try:
            if want is None:
                with pytest.raises(CorpusFormatError, match=f"^/dev/fd/{read}: {message}$"):
                    load_corpus(f"/dev/fd/{read}", got)
            else:
                assert_same_pairs(load_corpus(f"/dev/fd/{read}", got), want[0])
                assert_same_rows(got, *want[1:])
        finally:
            os.close(read)
        assert first_lines == [rows[20] + "\n"]


# Tag alphabets: any character, or any character with those the CSV
# format reserves drawn often enough to matter.
TAG_ALPHABETS = st.sampled_from([
    st.characters(),
    st.one_of(st.characters(), st.sampled_from(list(',"\r\n\x00# \t'))),
])


def writable(pairs) -> bool:
    """Whether every tag survives being written unquoted as UTF-8."""
    for name in ("camera", "illuminant", "exposure", "patch"):
        for t in getattr(pairs, name):
            try:
                t.encode("utf-8")
            except UnicodeEncodeError:
                return False
            if re.search('[,"\r\n\x00]', t) or (name == "camera" and t.lstrip().startswith("#")):
                return False
    return True


@st.composite
def pair_sets(draw):
    """Sets in the corpus domain: raw values any floats (those from the
    flagging limit up to 2 flagged by the set) and rendered values 8-bit
    levels."""
    n = draw(st.integers(1, 12))
    raw = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=3 * n, max_size=3 * n)))
    raw = raw.reshape(n, 3)
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=3 * n, max_size=3 * n)))
    levels = levels.reshape(n, 3)
    tag = st.text(draw(TAG_ALPHABETS), max_size=6)
    tags = [tuple(draw(st.lists(tag, min_size=n, max_size=n))) for _ in range(4)]
    return PixelPairSet(raw, levels / 255.0, *tags)


class TestSaveCorpus:
    # Rendered values are stored times 255, so only values on the 8-bit
    # grid are certain to round trip: about 1.5% of uniform floats in
    # [0, 1] have no stored value that divides back to them. A set whose
    # tags cannot be written unquoted is refused before a file is made.
    @settings(max_examples=300, deadline=None)
    @given(pairs=pair_sets())
    def test_round_trip_is_bit_exact(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            if not writable(pairs):
                with pytest.raises(ValueError, match="tag"):
                    save_corpus(pairs, path)
                assert not path.exists()
                return
            save_corpus(pairs, path)
            back = load_corpus(path)
        assert back.raw.tobytes() == pairs.raw.tobytes()
        assert back.rendered.tobytes() == pairs.rendered.tobytes()
        assert back.saturated.tolist() == pairs.saturated.tolist()
        for name in ("camera", "illuminant", "exposure", "patch"):
            assert getattr(back, name).tolist() == getattr(pairs, name).tolist(), name

    @pytest.mark.parametrize("column, tag", [
        ("camera", "a,b"), ("illuminant", 'say "x"'), ("exposure", "e\r0"),
        ("patch", "p\n1"), ("patch", "p\ud800"), ("camera", "#cam"), ("camera", "  # cam"),
    ])
    def test_unwritable_tag_named(self, tmp_path, column, tag):
        pairs = PixelPairSet.from_arrays(np.full((3, 3), 0.5), np.full((3, 3), 0.5))
        tags = list(getattr(pairs, column))
        tags[1] = tag
        pairs = dataclasses.replace(pairs, **{column: tuple(tags)})
        with pytest.raises(ValueError, match=f"{column} tag {re.escape(repr(tag))}"):
            save_corpus(pairs, tmp_path / "c.csv")

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=6, max_size=6),
           tags=st.lists(st.text(max_size=3), min_size=4, max_size=4))
    def test_row_template_matches_fmt(self, values, tags):
        want = ",".join(tags + [_fmt(v) for v in values] + ["1"]) + "\n"
        assert dataset._ROW_TEMPLATE % (*tags, *values) == want

    @pytest.mark.parametrize("save", [False, True])
    def test_descriptor_refused_and_left_open(self, save):
        # open() takes an int as a file descriptor and closes it when done
        pairs = PixelPairSet.from_arrays(np.full((2, 3), 0.5), np.full((2, 3), 0.5))
        r, w = os.pipe()
        try:
            if not save:
                # so that a read of the pipe would end, not wait
                os.close(w)
            with pytest.raises(ValueError, match="^path must be a str, bytes or "
                                                 r"os\.PathLike, got int$"):
                save_corpus(pairs, w) if save else load_corpus(r)
            os.fstat(r)
            if save:
                os.close(w)
                assert os.read(r, 1) == b""  # nothing was written
        finally:
            os.close(r)

    @pytest.mark.parametrize("save", [False, True])
    @pytest.mark.parametrize("flag", [False, True])
    def test_bool_refused_before_opening(self, save, flag, monkeypatch):
        # a bool is an int to open(): True would be standard output
        def no_open(*args, **kwargs):
            raise AssertionError("a file was opened")

        monkeypatch.setattr(dataset, "open", no_open, raising=False)
        pairs = PixelPairSet.from_arrays(np.full((2, 3), 0.5), np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="^path must be a str, bytes or "
                                             r"os\.PathLike, got bool$"):
            save_corpus(pairs, flag) if save else load_corpus(flag)

    def test_paths_of_every_kind_round_trip_and_bad_ones_raise_oserror(self, tmp_path):
        pairs = PixelPairSet.from_arrays(np.full((2, 3), 0.5), np.full((2, 3), 0.5))
        for path in (tmp_path / "a.csv", str(tmp_path / "b.csv"), bytes(tmp_path / "c.csv")):
            save_corpus(pairs, path)
            assert load_corpus(path).raw.tolist() == pairs.raw.tolist()
        with pytest.raises(OSError):
            load_corpus(tmp_path / "missing.csv")
        with pytest.raises(OSError):
            save_corpus(pairs, tmp_path / "missing" / "c.csv")

    def test_hash_allowed_in_other_tags(self, tmp_path):
        pairs = PixelPairSet.from_arrays(np.full((2, 3), 0.5), np.full((2, 3), 0.5),
                                         camera="c#1", illuminant="#i", exposure="#e")
        save_corpus(pairs, tmp_path / "c.csv")
        back = load_corpus(tmp_path / "c.csv")
        assert ((back.camera.tolist(), back.illuminant.tolist())
                == (pairs.camera.tolist(), pairs.illuminant.tolist()))


def image_pairs() -> PixelPairSet:
    """A quantized 30 x 30 image corpus from seeded uniform draws only (no
    libm or BLAS call), flagged as loading flags it."""
    rng = np.random.default_rng(101)
    raw = rng.uniform(0.0, 1.0, (900, 3))
    levels = rng.integers(0, 256, (900, 3)).astype(float)
    return PixelPairSet(raw, levels / 255.0, ("cam101",) * 900, ("i0",) * 900,
                        ("e0",) * 900, tuple(f"p{i}" for i in range(900)))


def multi_pairs() -> PixelPairSet:
    """An unquantized corpus over 3 illuminants x 2 exposures with clipped
    rows: raw values up to 1.3 and rendered values of exactly 0 or 1."""
    rng = np.random.default_rng(202)
    n = 600
    raw = rng.uniform(0.0, 1.0, (n, 3))
    rendered = rng.uniform(0.0, 1.0, (n, 3))
    raw[::17, 0] = rng.uniform(0.995, 1.3, raw[::17, 0].shape)
    rendered[5::23, 1] = 1.0
    rendered[11::29, 2] = 0.0
    patches = tuple(f"p{i % 100}" for i in range(n))
    return PixelPairSet(raw, rendered, ("cam202",) * n,
                        tuple(f"i{(i // 100) % 3}" for i in range(n)),
                        tuple(f"e{i // 300}" for i in range(n)), patches)


class TestGoldenBytes:
    # Digests recorded from the row-at-a-time writer, whose bytes the
    # batched writer must reproduce.
    @pytest.mark.parametrize("make, digest", [
        (image_pairs, "c805e19bd2584a732a9d9708263554fb8120f9a9db835faa6edd6b6912b4a517"),
        (multi_pairs, "1ad9953c36dbb5c4a5658ea17fedd6e2d2aeae499b4827d19ca167ea2b05b220"),
    ])
    def test_save_corpus_bytes(self, tmp_path, make, digest):
        save_corpus(make(), tmp_path / "c.csv")
        assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == digest


class TestSelectSubset:
    def big_corpus(self):
        camera = make_camera(seed=1, delta=0.2, tone=ToneSpec("gamma", 1 / 2.2))
        return make_corpus(camera, 100, illuminants=make_illuminants(10, 2),
                           exposures=make_exposures(20), rng_seed=4)

    def test_uniform_8000_of_20000(self):
        corpus = self.big_corpus()
        assert len(corpus) == 20000
        subset = select_subset(corpus, SubsetSpec("uniform", k=8000, rng_seed=1))
        assert len(subset) == 8000
        keys = set(zip(subset.illuminant, subset.exposure, subset.patch))
        assert len(keys) == 8000

    def test_exposures_illuminants_selection(self):
        corpus = self.big_corpus()
        spec = SubsetSpec("exposures_illuminants", n_exposures=10,
                          n_illuminants=1, rng_seed=2)
        subset = select_subset(corpus, spec)
        assert len(set(subset.exposure)) == 10
        assert len(set(subset.illuminant)) == 1
        assert len(subset) == 10 * 1 * 100

    def test_uniform_full_size_is_permutation(self):
        corpus = self.big_corpus().subset(np.arange(50))
        subset = select_subset(corpus, SubsetSpec("uniform", k=50, rng_seed=3))
        assert len(subset) == 50
        assert sorted(subset.patch) == sorted(corpus.patch)
        assert subset.patch.tolist() != corpus.patch.tolist()  # permuted order

    def test_uniform_overdraw_rejected(self):
        corpus = self.big_corpus().subset(np.arange(10))
        with pytest.raises(InsufficientVariety):
            select_subset(corpus, SubsetSpec("uniform", k=11, rng_seed=0))

    def test_variety_overdraw_rejected(self):
        corpus = self.big_corpus()
        spec = SubsetSpec("exposures_illuminants", n_exposures=21,
                          n_illuminants=1, rng_seed=0)
        with pytest.raises(InsufficientVariety):
            select_subset(corpus, spec)

    def test_deterministic_and_from_parent(self):
        corpus = self.big_corpus()
        a = select_subset(corpus, SubsetSpec("uniform", k=500, rng_seed=9))
        b = select_subset(corpus, SubsetSpec("uniform", k=500, rng_seed=9))
        assert a.raw.tobytes() == b.raw.tobytes()
        parent_keys = set(zip(corpus.illuminant, corpus.exposure, corpus.patch))
        child_keys = set(zip(a.illuminant, a.exposure, a.patch))
        assert child_keys <= parent_keys

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_exposures_illuminants_mask_matches_row_rule(self, data, n, seed):
        # each column's tags from a few drawn texts, NULs and spaces
        # included; each row's patch tag is its index
        def column():
            texts = data.draw(st.lists(st.text("ab \x00", max_size=3), min_size=1,
                                       max_size=5, unique=True))
            return data.draw(st.lists(st.sampled_from(texts), min_size=n, max_size=n))

        exposure, illuminant = column(), column()
        corpus = PixelPairSet(np.full((n, 3), 0.5), np.full((n, 3), 0.5), ["c"] * n,
                              illuminant, exposure, [str(i) for i in range(n)])
        spec = SubsetSpec("exposures_illuminants",
                          n_exposures=data.draw(st.integers(1, len(set(exposure)))),
                          n_illuminants=data.draw(st.integers(1, len(set(illuminant)))),
                          rng_seed=seed)
        # the rule row by row: the spec's seeded draws from the sorted
        # distinct tags, then every row holding a drawn pair
        rng = np.random.default_rng(seed)
        exposures, illuminants = sorted(set(exposure)), sorted(set(illuminant))
        keep_e = {exposures[k] for k in rng.choice(len(exposures), spec.n_exposures,
                                                   replace=False)}
        keep_i = {illuminants[k] for k in rng.choice(len(illuminants), spec.n_illuminants,
                                                     replace=False)}
        rows = [str(i) for i in range(n) if exposure[i] in keep_e and illuminant[i] in keep_i]
        assert select_subset(corpus, spec).patch.tolist() == rows


class TestSubsetSpec:
    @pytest.mark.parametrize("fields, message", [
        (dict(k=2.5), "k must be an integer >= 1"), (dict(k=True), "k must be an integer"),
        (dict(k=0), "k must be an integer >= 1"),
        (dict(k=4, n_exposures=1.0), "n_exposures must be an integer >= 0"),
        (dict(k=4, n_illuminants="2"), "n_illuminants must be an integer >= 0"),
        (dict(k=4, rng_seed=-1), "rng_seed must be an integer >= 0"),
        (dict(k=4, rng_seed=0.5), "rng_seed"), (dict(k=4, rng_seed=False), "rng_seed"),
        (dict(kind="exposures_illuminants", n_exposures=2), "n_illuminants must be an integer >= 1"),
        (dict(kind="exposures", k=4), "unknown subset kind 'exposures'"),
    ])
    def test_rejects_bad_field_by_name(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SubsetSpec(**{"kind": "uniform", **fields})

    def test_accepts_numpy_integers(self):
        spec = SubsetSpec("uniform", k=np.int64(3), rng_seed=np.uint32(7))
        assert len(select_subset(PixelPairSet.from_arrays(np.full((5, 3), 0.5),
                                                          np.full((5, 3), 0.5)), spec)) == 3


class TestParseSubsetSpec:
    def test_vocabulary(self):
        assert parse_subset_spec("all") is None
        uniform = parse_subset_spec("uniform:8000", rng_seed=5)
        assert uniform.kind == "uniform" and uniform.k == 8000
        byids = parse_subset_spec("exp:10,illu:1", rng_seed=5)
        assert byids.n_exposures == 10 and byids.n_illuminants == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_subset_spec("everything")

    @pytest.mark.parametrize("spec", [
        "exp:2,illu", "exp:2", "exp:2,illu:1,exp:3", "exp:2,cam:1",
        "exp:x,illu:1", "uniform:abc", "uniform:",
    ])
    def test_bad_spec_is_named(self, spec):
        with pytest.raises(ValueError, match="bad subset spec"):
            parse_subset_spec(spec)


class TestRmse:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, (50, 3))
        assert rmse(v, v, "rendered255") == 0.0
        assert rmse(v, v, "raw01") == 0.0

    def test_single_level_difference_hand_value(self):
        pred = np.array([[0.5 + 1 / 255, 0.5, 0.5]])
        truth = np.array([[0.5, 0.5, 0.5]])
        assert rmse(pred, truth, "rendered255") == pytest.approx(1 / np.sqrt(3), rel=1e-12)

    def test_matches_two_pass_recomputation(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 1, (100, 3))
        truth = rng.uniform(0, 1, (100, 3))
        total = 0.0
        count = 0
        for i in range(100):
            for c in range(3):
                total += (255 * (pred[i, c] - truth[i, c])) ** 2
                count += 1
        want = np.sqrt(total / count)
        assert rmse(pred, truth, "rendered255") == pytest.approx(want, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0, 1, (30, 3))
        truth = rng.uniform(0, 1, (30, 3))
        assert rmse(pred, truth, "raw01") == rmse(truth, pred, "raw01")

    def test_accepts_one_row(self):
        assert rmse([0.1, 0.2, 0.3], np.array([[0.1, 0.2, 0.4]]), "raw01") == pytest.approx(
            0.1 / np.sqrt(3))

    @pytest.mark.parametrize("pred, truth, name", [
        (np.zeros(6), np.zeros((2, 3)), "predictions"),
        (np.zeros((2, 3)), np.zeros((3, 2)), "truth"),
        (np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), "predictions"),
    ])
    def test_rejects_shapes_other_than_rows(self, pred, truth, name):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            rmse(pred, truth, "raw01")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["predictions", "truth"])
    def test_rejects_non_finite_values(self, bad, name):
        arrays = {"predictions": np.zeros((2, 3)), "truth": np.zeros((2, 3))}
        arrays[name][1, 2] = bad
        with pytest.raises(ValueError, match=f"{name} row 1 is not finite"):
            rmse(arrays["predictions"], arrays["truth"], "raw01")

    @pytest.mark.parametrize("pred, truth, domain, want", [
        # squared errors overflow
        ([[1e200] * 3], [[-1e200] * 3], "raw01", 2e200),
        ([[1e200] * 3], [[-1e200] * 3], "rendered255", 255 * 2e200),
        ([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]], np.zeros((2, 3)), "raw01", 1e200 / np.sqrt(6)),
        # so does the difference itself, though the RMSE does not
        ([[1e308, 0.0, 0.0]], [[-1e308, 0.0, 0.0]], "raw01", 1e308 * (2 / np.sqrt(3))),
        # the RMSE is past the largest float
        ([[1e308] * 3], [[-1e308] * 3], "raw01", np.inf),
    ])
    def test_large_errors_do_not_overflow(self, pred, truth, domain, want):
        # warnings are errors under pytest, so no overflow warning escapes
        assert rmse(pred, truth, domain) == pytest.approx(want, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 3)), np.zeros((3, 3)), "raw01")

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 3)), np.zeros((2, 3)), "percent")
