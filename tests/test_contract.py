"""The exit-code contract under damaged inputs, and every forked path against its serial oracle.

One valid input of detect (four scan shards) or of the plan cycle (applayer, escalate, evaluate)
is damaged: cut at a byte, given a malformed last line, a UTF-8 BOM, CRLF line ends or a lone
``\\r``, or emptied. Whatever the damage, the command exits 0, 2, 3 or 4, its stderr is empty or
one ``hrpkit <command>: ...`` line, and with two usable CPUs and a fork for any input it gives the
exit code, stderr and output bytes that it gives on one, and leaves no worker behind."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hrpkit.ingest import LENIENT, STRICT

from conftest import cycle_argv, run_with_cpus, write_cycle

_SHARDS = tuple(f"shard{i}" for i in range(4))
_INPUTS = {
    "detect": _SHARDS,
    "applayer": ("truth", "scan"),
    "escalate": ("plan", "truth", "scan"),
    "evaluate": ("plan", "truth"),
}
_MALFORMED = [
    b"junk\n",
    b"10.0.0\n",
    b"10.0.0.256\n",
    b"\xff\xfe\n",  # not UTF-8
    b"10.0.0.1\x00\n",
    b"10.0.0.1,80,tcp,success,x\n",  # another port
    b"10.0.0.1,443,tcp,bogus,x\n",
    b"10.0.9.1,10.0.9.0/24,bogus,dns_seed\n",
    b",,,,\n",
    b"junk",  # with no line end
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, bytes]:
    """The plan cycle's input bytes, and its scan's lines dealt into four shards."""
    paths = write_cycle(tmp_path_factory.mktemp("cycle"))
    inputs = {name: Path(paths[name]).read_bytes() for name in ("scan", "truth", "plan")}
    lines = inputs["scan"].splitlines(keepends=True)
    inputs.update((shard, b"".join(lines[i::4])) for i, shard in enumerate(_SHARDS))
    return inputs


def _damage(data: bytes, draw) -> bytes:
    """The bytes with one drawn kind of damage."""
    kind = draw(st.sampled_from(["truncate", "append", "bom", "crlf", "lone_cr", "empty"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "append":
        return data + draw(st.sampled_from(_MALFORMED) | st.binary(max_size=12).map(lambda line: line + b"\n"))
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "lone_cr":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\r" + data[at:]
    return b""


def _argv(command: str, paths: dict[str, str], policy: list[str]) -> list[str]:
    if command == "detect":
        return ["detect", "--port", "443", *policy, "--output", "OUT/stats.csv", "--summary", "OUT/detect.json",
                *(paths[shard] for shard in _SHARDS)]
    return cycle_argv(command, paths, *policy)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(_INPUTS)), st.data())
def test_damaged_inputs_keep_the_exit_code_contract_and_the_serial_oracle(corpus, command, data):
    name = data.draw(st.sampled_from(_INPUTS[command]), label="damaged input")
    policy = [] if command == "evaluate" else ["--policy", data.draw(st.sampled_from([STRICT, LENIENT]), label="policy")]
    damaged = _damage(corpus[name], data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        paths = {}
        for input_name in _INPUTS[command]:
            paths[input_name] = str(folder / input_name)
            Path(paths[input_name]).write_bytes(damaged if input_name == name else corpus[input_name])
        argv = _argv(command, paths, policy)
        serial = run_with_cpus(folder, argv, 1)
        code, err, _ = serial
        assert code in (0, 2, 3, 4), serial
        assert "Traceback" not in err
        assert err == "" or (err.startswith(f"hrpkit {command}: ") and err.count("\n") == 1 and err.endswith("\n")), err
        assert run_with_cpus(folder, argv, 2) == serial
