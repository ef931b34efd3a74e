"""The CLI reads a regular file larger than one chunk from disk a block at a
time, never holding its whole text, and falls back to the whole-text read
for anything that stream refuses.  Either way a file must read as the same
bytes do through stdin: the same exit code, stdout and stderr."""

import io
import os
import sys
import threading

import pytest
from oracles import differential_corpus
from test_read_chunks import _ADVERSARIAL, _CHUNKED, FAMILIES

from lineconsistency import cli, new_signed_graph, write_signed_graph
from lineconsistency import io as reader
from lineconsistency.cli import main

_ARGS = ["check", "--method", "ii", "--witness"]


@pytest.fixture
def streamed(monkeypatch):
    """The paths whose every piece ``io._file_pieces`` yielded and the
    decoder took, while the test runs."""
    paths, file_pieces = [], reader._file_pieces

    def recorded(path):
        yield from file_pieces(path)
        paths.append(path)

    monkeypatch.setattr(reader, "_file_pieces", recorded)
    return paths


def _stdin_output(monkeypatch, capsys, data: bytes) -> tuple:
    # as the interpreter opens stdin on POSIX: no newline translation
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    code = main([*_ARGS, "-"])
    return (code, *capsys.readouterr())


def _file_output(capsys, path) -> tuple:
    code = main([*_ARGS, str(path)])
    return (code, *capsys.readouterr())


def _same_as_stdin(monkeypatch, capsys, path, data: bytes) -> tuple:
    """The file output of ``data`` written to ``path``, asserted equal to
    its stdin output."""
    path.write_bytes(data)
    output = _file_output(capsys, path)
    assert output == _stdin_output(monkeypatch, capsys, data)
    return output


@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_files_read_as_their_stdin(family, monkeypatch, capsys, tmp_path,
                                          streamed):
    path = tmp_path / "graph.json"
    for i, graph in enumerate(differential_corpus(family)):
        monkeypatch.setattr(reader, "_CHUNK", (7, 40, 100)[i % 3])
        streamed.clear()
        _same_as_stdin(monkeypatch, capsys, path, write_signed_graph(graph).encode())
        assert streamed == ([str(path)] if graph.edge_ids else []), graph


@pytest.mark.parametrize("name", list(_ADVERSARIAL))
def test_adversarial_files_read_as_their_stdin(name, monkeypatch, capsys, tmp_path,
                                               streamed):
    path = tmp_path / "graph.json"
    monkeypatch.setattr(reader, "_CHUNK", 1)
    _same_as_stdin(monkeypatch, capsys, path, _ADVERSARIAL[name].encode())
    assert (streamed == [str(path)]) == (name in _CHUNKED)


_DATA = _ADVERSARIAL["escaped-ids"].encode()


def _inserted(before: bytes, data: bytes) -> bytes:
    """``_DATA`` with ``data`` put in just before the last ``before``."""
    at = _DATA.rindex(before)
    return _DATA[:at] + data + _DATA[at:]


@pytest.mark.parametrize("data", [
    _DATA.replace(b"\n", b"\r\n"),
    _DATA.replace(b'"sign": ', b'"sign":\r', 1),
    _inserted(b'\n    "a\\nb"', b"\r"),
    b"\xef\xbb\xbf" + _DATA,
    _inserted(b'\\u00e9\\u00e9",', b"\xff"),
    _inserted(b"]\n}", b',\n    "\xff"'),
], ids=["crlf", "lone-cr", "cr-in-the-vertices", "bom", "bad-byte-in-a-late-edge",
        "bad-byte-in-the-vertices"])
def test_refused_files_read_as_their_stdin(data, monkeypatch, capsys, tmp_path, streamed):
    monkeypatch.setattr(reader, "_CHUNK", 40)
    code, out, err = _same_as_stdin(monkeypatch, capsys, tmp_path / "graph.json", data)
    assert not streamed
    if b"\xff" in data:
        assert code == 2 and err.startswith("error: cannot decode input: 'utf-8' codec "
                                            "can't decode byte 0xff in position ")
    elif b"\r" in data:
        assert (code, out) == (0, "ii: line consistent\n")


def test_characters_straddling_blocks_stream(monkeypatch, capsys, tmp_path, streamed):
    data = _ADVERSARIAL["raw-non-ascii"].replace("z", "☃é" * 20).encode()
    start = len(reader._HEAD) - 1
    for chunk in range(1, 50):
        monkeypatch.setattr(reader, "_CHUNK", chunk)
        streamed.clear()
        _same_as_stdin(monkeypatch, capsys, tmp_path / "graph.json", data)
        assert streamed, chunk
    # the blocks of 7 bytes cut some character in two
    end = data.rindex(reader._VERTICES.encode())
    assert any(0x80 <= byte < 0xC0 for byte in data[start + 7:end:7])


def test_a_vertex_array_longer_than_the_edges_streams(monkeypatch, capsys, tmp_path,
                                                      streamed):
    monkeypatch.setattr(reader, "_CHUNK", 7)
    data = write_signed_graph(new_signed_graph(map(str, range(100)), [
        ("e", "0", "1", "-")])).encode()
    assert data.index(reader._VERTICES.encode()) < len(data) // 4
    _same_as_stdin(monkeypatch, capsys, tmp_path / "graph.json", data)
    assert streamed


def test_the_vertex_array_is_read_once(monkeypatch, capsys, tmp_path, streamed):
    """The file's end is read back in doubling windows, each byte once, so a
    vertex array over several windows costs the file's bytes, plus what the
    last window holds before the array and the one byte the edges' first
    block reads again: not every window's bytes anew."""
    reads = []

    class Counted(io.FileIO):
        def read(self, size=-1):
            data = super().read(size)
            reads.append(len(data))
            return data

    monkeypatch.setattr(reader, "open", lambda path, mode: Counted(path), raising=False)
    monkeypatch.setattr(reader, "_CHUNK", 64)
    data = write_signed_graph(new_signed_graph(map(str, range(300)), [
        (f"e{i}", str(i), str(i + 1), "-" if i % 2 else "+") for i in range(60)])).encode()
    tail, window = len(data) - data.rindex(reader._VERTICES.encode()), 64
    while window < tail:
        window *= 2
    assert 8 * 64 <= window <= len(data)  # several windows, none past the start
    _same_as_stdin(monkeypatch, capsys, tmp_path / "graph.json", data)
    assert streamed
    assert sum(reads) == len(data) + window - tail + 1


def test_a_file_of_one_chunk_is_read_whole(monkeypatch, capsys, tmp_path, streamed):
    path = tmp_path / "graph.json"
    for chunk, streams in ((len(_DATA), False), (len(_DATA) - 1, True)):
        monkeypatch.setattr(reader, "_CHUNK", chunk)
        streamed.clear()
        _same_as_stdin(monkeypatch, capsys, path, _DATA)
        assert bool(streamed) == streams


def _whole_output(monkeypatch, capsys, path) -> tuple:
    """``_file_output`` with every file read as a text."""
    with monkeypatch.context() as patched:
        patched.setattr(cli, "stream_signed_graph", lambda path: None)
        return _file_output(capsys, path)


def test_paths_that_are_not_regular_files_read_as_before(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(reader, "_CHUNK", 1)
    for path in (tmp_path, tmp_path / "missing.json"):
        output = _file_output(capsys, path)
        assert output == _whole_output(monkeypatch, capsys, path)
        assert output[0] == 2 and output[2].startswith("error: [Errno ")


def test_a_fifo_is_not_opened_by_the_stream(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(reader, "_CHUNK", 1)
    fifo = tmp_path / "graph.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as handle:
            handle.write(_DATA)

    writer = threading.Thread(target=write)
    writer.start()
    assert reader.stream_signed_graph(str(fifo)) is None  # without opening it
    output = _file_output(capsys, fifo)  # the whole read takes the writer's text
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert output == _stdin_output(monkeypatch, capsys, _DATA)


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
def test_an_unreadable_file_reads_as_before(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(reader, "_CHUNK", 1)
    path = tmp_path / "graph.json"
    path.write_bytes(_DATA)
    path.chmod(0)
    output = _file_output(capsys, path)
    assert output == _whole_output(monkeypatch, capsys, path)
    assert output[0] == 2 and "Permission denied" in output[2]
