"""The exit-code contract under damaged inputs, and every forked path against its serial oracle.

One valid input of detect (four scan shards), of the plan cycle (applayer, escalate, evaluate) or
of the analysis commands (enrich's stats file or route snapshot, one of portmatrix's three stats
files, stability's four or vantage's two) is damaged: cut at a byte, given a malformed line at its
end or at a line start, a UTF-8 BOM, CRLF line ends or a lone ``\\r``, or emptied. Whatever the
damage, the command exits 0, 2, 3 or 4, its stderr is empty or one ``hrpkit <command>: ...`` line,
and with two usable CPUs and a fork for any input it gives the exit code, stderr and output bytes
that it gives on one, and leaves no worker behind."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hrpkit.ingest import LENIENT, STRICT

from hrpkit.cli import main

from conftest import cycle_argv, run_with_cpus, write_cycle

_SHARDS = tuple(f"shard{i}" for i in range(4))
_PORTS = {"stats80": 80, "stats443": 443, "stats8080": 8080}
_WEEKS = tuple(f"week{i}" for i in range(4))
_INPUTS = {
    "detect": _SHARDS,
    "applayer": ("truth", "scan"),
    "escalate": ("plan", "truth", "scan"),
    "evaluate": ("plan", "truth"),
    "enrich": ("stats443", "rib"),
    "portmatrix": tuple(_PORTS),
    "stability": _WEEKS,
    "vantage": _WEEKS[:2],
}
_POLICY = ("detect", "applayer", "escalate", "enrich")  # the commands with --policy
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
    b"10.0.0.7/24,64500\n",  # host bits set
    b"10.0.0.0/24,64501\n",  # a conflict with the snapshot's first line
    b"10.0.1.0/24,1,2\n",
    b"10.0.1.0/24,443,tcp,300,true,0.9,,\n",
    b"10.0.1.0/24,443,tcp,3,false,0.9,64500,10.0.0.1/24\n",
    b"junk",  # with no line end
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, bytes]:
    """The plan cycle's input bytes, its scan's lines dealt into four shards, a route snapshot of
    /24s and the /16 over them, and stats files of the scan: enriched ones for three ports, and
    four weeks that each miss a run of its lines, which some of its HRPs do not survive."""
    folder = tmp_path_factory.mktemp("cycle")
    paths = write_cycle(folder)
    inputs = {name: Path(paths[name]).read_bytes() for name in ("scan", "truth", "plan")}
    lines = inputs["scan"].splitlines(keepends=True)
    inputs.update((shard, b"".join(lines[i::4])) for i, shard in enumerate(_SHARDS))
    inputs["rib"] = b"".join(b"10.0.%d.0/24,%d\n" % (i, 64500 + i % 3) for i in range(0, 256, 2)) + b"10.0.0.0/16,64999\n"
    rib = folder / "rib"
    rib.write_bytes(inputs["rib"])
    for name, kept in [*((week, lines[:i * 180] + lines[i * 183 + 8:]) for i, week in enumerate(_WEEKS)),
                       *((name, lines[:500 + port % 200]) for name, port in _PORTS.items())]:
        (folder / f"{name}.txt").write_bytes(b"".join(kept))
        flags = ["--output", str(folder / name), "--summary", str(folder / "sum"), str(folder / f"{name}.txt")]
        assert main(["detect", "--port", str(_PORTS.get(name, 443)), *flags]) == 0
        if name in _PORTS:
            assert main(["enrich", "--output", str(folder / name), "--summary", str(folder / "sum"),
                         str(folder / name), str(rib)]) == 0
        inputs[name] = (folder / name).read_bytes()
    return inputs


def _damage(data: bytes, draw) -> bytes:
    """The bytes with one drawn kind of damage."""
    kind = draw(st.sampled_from(["truncate", "append", "insert", "bom", "crlf", "lone_cr", "empty"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind in ("append", "insert"):
        line = draw(st.sampled_from(_MALFORMED) | st.binary(max_size=12).map(lambda line: line + b"\n"))
        lines = data.splitlines(keepends=True)
        at = len(lines) if kind == "append" else draw(st.integers(0, len(lines)))
        return b"".join(lines[:at]) + line + b"".join(lines[at:])
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "lone_cr":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\r" + data[at:]
    return b""


def _argv(command: str, paths: dict[str, str], policy: list[str]) -> list[str]:
    inputs = [paths[name] for name in _INPUTS[command]]
    if command == "detect":
        return ["detect", "--port", "443", *policy, "--output", "OUT/stats.csv", "--summary", "OUT/detect.json", *inputs]
    if command == "enrich":
        return ["enrich", *policy, "--output", "OUT/enriched.csv", "--summary", "OUT/enrich.json", *inputs]
    if command == "portmatrix":
        return ["portmatrix", "--as-summary", "OUT/as.json", "--histogram-csv", "OUT/histogram.csv",
                "--profiles-csv", "OUT/profiles.csv", "--output", "OUT/portmatrix.json", *inputs]
    if command == "stability":
        return ["stability", "--series-csv", "OUT/series.csv", "--output", "OUT/stability.json", *inputs]
    if command == "vantage":
        return ["vantage", "--output", "OUT/vantage.json", *inputs]
    return cycle_argv(command, paths, *policy)


@settings(deadline=None, max_examples=500)
@given(st.sampled_from(sorted(_INPUTS)), st.data())
def test_damaged_inputs_keep_the_exit_code_contract_and_the_serial_oracle(corpus, command, data):
    name = data.draw(st.sampled_from(_INPUTS[command]), label="damaged input")
    policy = ["--policy", data.draw(st.sampled_from([STRICT, LENIENT]), label="policy")] if command in _POLICY else []
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
