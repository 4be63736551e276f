"""Readers for IPv4 port-scan output files, and the field and table rules
every input of hrpkit is read by.

Two scan layouts are supported:

* ``plain``: one dotted-quad address per line, ``#`` starts a comment line.
* ``csv_saddr``: comma-separated with a header row; only the ``saddr``
  column is read (the layout ZMap's CSV output module produces).

Reading is streaming and single-pass, a block of lines at a time (see
:func:`table_runs`): addresses come out in file order, once their block
has been read, and every input line lands in exactly one counter of
:class:`IngestStats`.
In both layouts a line starting with ``#`` (after surrounding whitespace)
is a comment; in ``csv_saddr`` the header is the first non-comment line.
Fields in ``csv_saddr`` rows are split on plain commas; scan output never
quotes fields, so no quote processing is done.

Address text is four canonical ASCII decimal octets 0-255 without leading
zeros (the form the standard library's IPv4Address accepts), parsed by the C
library's ``inet_pton``, a column of texts in one pass.

The CSV tables the stages hand each other are read by :func:`read_csv` a
block at a time, with the field parsers here; scans and the routing
snapshot take the same block path without a header row of their own.
"""

from __future__ import annotations

import sys
from _socket import AF_INET, inet_pton  # not socket, whose import pulls in selectors
from array import array
from collections import namedtuple
from datetime import datetime, timezone
from functools import partial
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

PLAIN = "plain"
CSV_SADDR = "csv_saddr"
FORMATS = (PLAIN, CSV_SADDR)

STRICT = "strict"
LENIENT = "lenient"
POLICIES = (STRICT, LENIENT)

SADDR_COLUMN = "saddr"

_PROTOCOLS = ("tcp", "udp")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)  # the first time of a scan series given none

_T = TypeVar("_T")

BLOCK_LINES = 1024  # lines per block of a table read in columns
# Bytes to delete to keep only a block's field and line separators, ASCII whitespace and NULs,
# or only a column's slashes and the commas between its texts.
_NOT_SHAPE = bytes(c for c in range(256) if c not in b",\n\t\x0b\x0c\r\x1c\x1d\x1e\x1f \0")
_NOT_SLASH = bytes(c for c in range(256) if c not in b",/")


class IngestError(Exception):
    """A scan input line could not be used (raised under strict policy)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Record:
    """A mutable record or column table: equal to a record of its class whose fields are equal,
    and shown with its fields, ``vars(record)``, in the order its constructor sets them."""

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"


class Checked:
    """Mixed into a named tuple whose constructor checks its fields, so that ``_make``, and with it
    ``_replace``, builds through that constructor."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class ScanMeta(Checked, namedtuple("ScanMeta", "protocol port")):
    """The scan a table's rows come from: its protocol and port."""

    __slots__ = ()

    def __new__(cls, protocol: str, port: int):
        if protocol not in _PROTOCOLS:
            raise ValueError(f"protocol must be one of {_PROTOCOLS}, got {protocol!r}")
        if not 0 <= port <= 65535:
            raise ValueError(f"port out of range: {port}")
        return super().__new__(cls, protocol, port)


class IngestStats(Record):
    """Line accounting for one ingest run.

    Invariant: lines_read == addresses_emitted + invalid_lines + comment_lines.
    The csv_saddr header row counts as a comment line.
    """

    def __init__(self, lines_read: int = 0, addresses_emitted: int = 0, invalid_lines: int = 0, comment_lines: int = 0):
        self.lines_read = lines_read
        self.addresses_emitted = addresses_emitted
        self.invalid_lines = invalid_lines
        self.comment_lines = comment_lines

    def merge(self, other: "IngestStats") -> None:
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)


# inet_pton takes only four canonical decimal octets; other text raises OSError, and a NUL or a
# lone surrogate ValueError.
_ADDRESS = partial(inet_pton, AF_INET)
_NOT_ADDRESS = (OSError, ValueError)
# Canonical prefix-length text -> value; anything else (leading zeros, signs, whitespace,
# non-ASCII digits, values out of range) is absent.
_LENGTHS = {str(i): i for i in range(33)}


def parse_ipv4(text: str) -> int | None:
    """Parse a dotted-quad IPv4 address to its 32-bit value, or None."""
    try:
        return int.from_bytes(_ADDRESS(text), "big")
    except _NOT_ADDRESS:
        return None


def ipv4_column(texts: list[str]) -> array:
    """The 32-bit values of dotted-quad texts as an ``array('I')``; ValueError names the first
    text that is not an address."""
    values = _ipv4_values(texts)
    if values is None:
        raise ValueError(f"invalid address {next(text for text in texts if parse_ipv4(text) is None)!r}")
    return values


def _ipv4_values(texts: list[str]) -> array | None:
    """The 32-bit values of dotted-quad texts as an ``array('I')``, or None unless each text
    is an address that parse_ipv4 takes."""
    try:
        values = array("I", b"".join(map(_ADDRESS, texts)))
    except _NOT_ADDRESS:
        return None
    if sys.byteorder == "little":
        values.byteswap()
    return values


def parse_cidr(text: str) -> tuple[int, int] | None:
    """Parse ``a.b.c.d/length`` to (address value, length), or None.

    The length must be canonical text for 0-32; host bits are left for the
    caller to judge.
    """
    values = cidr_values([text])
    return None if values is None else (values[0][0], values[1][0])


def cidr_values(texts: list[str]) -> tuple[array, list[int]] | None:
    """The address values (an ``array('I')``) and lengths of ``a.b.c.d/length`` texts, or None
    unless each is an address parse_ipv4 takes, one slash and a canonical length 0-32."""
    # each text holds one slash: the slashes and the commas between the texts alternate
    marks = ",".join(texts).encode(errors="surrogatepass").translate(None, _NOT_SLASH)
    if not texts or marks != b"/," * (len(texts) - 1) + b"/":
        return None
    parts = "/".join(texts).split("/")
    networks, lengths = _ipv4_values(parts[::2]), list(map(_LENGTHS.get, parts[1::2]))
    return None if networks is None or None in lengths else (networks, lengths)


def parse_uint(text: str, low: int, high: int, name: str) -> int:
    """ASCII decimal digits (leading zeros allowed) for a value in [low, high] below 10**20; signs,
    underscores, whitespace, non-ASCII digits and other text raise ValueError naming the field."""
    if text.isascii() and text.isdigit() and (len(text) <= 20 or len(text.lstrip("0")) <= 20):
        if low <= (value := int(text)) <= high:  # zero-padded text may be longer, huge text never parsed
            return value
    raise ValueError(f"invalid {name} {text!r}: expected ASCII digits for {low}-{high}")


def parse_decimal(text: str, name: str) -> float:
    """ASCII digits, optionally followed by ``.`` and ASCII digits, as a float; signs, exponents,
    underscores, whitespace, nan/inf and non-ASCII digits raise ValueError naming the field."""
    whole, dot, fraction = text.partition(".")
    if whole.isascii() and whole.isdigit() and (not dot or fraction.isascii() and fraction.isdigit()):
        return float(text)
    raise ValueError(f"invalid {name} {text!r}: expected ASCII digits with an optional decimal point")


def block_meta(ports: list[str], protos: list[str], meta: ScanMeta | None) -> ScanMeta:
    """The one ScanMeta of some rows of a table from their port and protocol texts, where ``meta``
    is that of the table's earlier rows or None. ValueError names a bad port or protocol, or the
    first row naming another port/proto than the rows before it."""
    alike = ports.count(ports[0]) == len(ports) and protos.count(protos[0]) == len(protos)
    for port_text, proto in [(ports[0], protos[0])] if alike else dict.fromkeys(zip(ports, protos)):
        port = parse_uint(port_text, 0, 65535, "port")
        if meta is None:
            meta = ScanMeta(proto, port)
        elif (proto, port) != (meta.protocol, meta.port):
            raise ValueError(
                f"port/proto mismatch within file: {proto}/{port_text} vs {meta.protocol}/{meta.port}"
            )
    return meta


def parse_asn(text: str) -> int:
    """Parse an AS number written in ASCII digits; ValueError unless 0-4294967295."""
    return parse_uint(text, 0, 0xFFFFFFFF, "AS number")


def format_ipv4(value: int) -> str:
    """Dotted-quad text for a 32-bit address value."""
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def _saddr_field(saddr_index: int, row: str) -> int | None:
    fields = row.split(",")
    return parse_ipv4(fields[saddr_index].strip()) if saddr_index < len(fields) else None


def _text(line: str | bytes) -> str:
    """A line as text, bytes decoded as UTF-8 with replacement."""
    return line.decode("utf-8", "replace") if isinstance(line, bytes) else line


def open_scan_source(
    source: IO[bytes] | IO[str] | Iterable[str],
    fmt: str = PLAIN,
    policy: str = LENIENT,
) -> tuple[Iterator[int], IngestStats]:
    """Stream addresses out of a scan file.

    Returns the address iterator and the stats object it fills in while
    being consumed; the stats are final once the iterator is exhausted.
    Strict policy raises :class:`IngestError` at the first invalid line,
    lenient skips and counts it.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown scan format: {fmt!r}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy: {policy!r}")
    stats = IngestStats()
    return chain.from_iterable(_read_addresses(source, fmt, policy == STRICT, stats)), stats


def _read_addresses(source, fmt: str, strict: bool, stats: IngestStats) -> Iterator[Iterable[int]]:
    """The addresses of each run of scan lines (see ``table_runs``): an ``array('I')`` of the
    address column of a plainly written run of valid rows, or else the run's lines parsed one at
    a time."""
    lines = iter(source)
    first, width, index = (1, 1, 0) if fmt == PLAIN else _read_saddr_header(lines, stats)
    parse = parse_ipv4 if fmt == PLAIN else partial(_saddr_field, index)
    runs = table_runs(lines, width, first, lambda columns: _ipv4_values(columns[index]))
    for first, run, addresses in runs:
        if addresses is None:
            yield _parse_lines(enumerate(run, first), parse, strict, stats)
        else:
            stats.lines_read += len(run)
            stats.addresses_emitted += len(addresses)
            yield addresses


def _parse_lines(
    numbered: Iterable[tuple[int, str]], parse: Callable[[str], int | None], strict: bool, stats: IngestStats
) -> Iterator[int]:
    for line_number, line in numbered:
        stats.lines_read += 1
        stripped = line.strip()
        if stripped.startswith("#"):
            stats.comment_lines += 1
            continue
        addr = parse(stripped)
        if addr is None:
            if strict:
                raise IngestError(f"invalid address line: {stripped!r}", line_number)
            stats.invalid_lines += 1
            continue
        stats.addresses_emitted += 1
        yield addr


def _read_saddr_header(lines: Iterator[str], stats: IngestStats) -> tuple[int, int, int]:
    """Consume csv_saddr comment lines and the header; return the number of the next line, the
    header's width and its saddr column's index.

    Without a saddr column no later row can be interpreted, so that is fatal
    under any policy. The header counts as a comment line.
    """
    for line in lines:
        stats.lines_read += 1
        stats.comment_lines += 1
        stripped = _text(line).strip()
        if stripped.startswith("#"):
            continue
        header = [name.strip() for name in stripped.split(",")]
        if SADDR_COLUMN not in header:
            raise IngestError(f"header row has no {SADDR_COLUMN!r} column: {stripped!r}", stats.lines_read)
        return stats.lines_read + 1, len(header), header.index(SADDR_COLUMN)
    return stats.lines_read + 1, 1, 0  # no header, so no rows follow either


def table_runs(
    lines: Iterator[str | bytes],
    width: int,
    first: int,
    parse: Callable[[list[list[str]]], _T | None] | None = None,
) -> Iterator[tuple[int, list[str], _T | None]]:
    """The lines of a table ``width`` fields wide, from line number ``first``, in runs in file
    order, each as (number of its first line, its lines as text, its fields as ``width`` columns
    through ``parse`` if given). The fields are None, and the run must be read a line at a time,
    unless it is plainly written (see ``_plain_columns``) and ``parse``, which keeps no state,
    takes them. Lines are read BLOCK_LINES at a time; a block that does not parse is split in
    halves while one half parses, so an odd line sends few lines, not its whole block, to be
    read one at a time."""
    while block := list(islice(lines, BLOCK_LINES)):
        if set(map(type, block)) != {str}:
            block = list(map(_text, block))
        yield from _split_run(_parse_run(first, block, width, parse), width, parse)
        first += len(block)


def _parse_run(first: int, lines: list[str], width: int, parse: Callable) -> tuple:
    fields = _plain_columns(lines, width)
    return first, lines, fields if fields is None or parse is None else parse(fields)


def _split_run(run: tuple, width: int, parse: Callable) -> list[tuple]:
    """``run`` if it parsed or neither of its halves does, else its halves, each split alike."""
    first, lines, parsed = run
    if parsed is not None or len(lines) < 2:
        return [run]
    half = len(lines) // 2
    left = _parse_run(first, lines[:half], width, parse)
    right = _parse_run(first + half, lines[half:], width, parse)
    if left[2] is None and right[2] is None:
        return [run]
    return _split_run(left, width, parse) + _split_run(right, width, parse)


def read_csv(
    lines: Iterable[str], columns: Sequence[str], parse: Callable[[list[list[str]]], _T]
) -> Iterator[_T]:
    """Stream ``parse`` over the rows of a headed CSV table.

    Empty lines and lines starting with ``#`` are skipped anywhere. The first
    other line is the header and must name exactly ``columns`` (each stripped);
    a table without one raises ValueError. Every later row must have that many
    comma-separated fields. Whitespace around a field's text is stripped, unless
    the field holds nothing else: such a field is not empty, and fails any check.

    ``parse`` takes the fields of one row or of many, as one list of texts per
    column, and returns one value for those rows, which is yielded. It raises
    ValueError naming a bad value, and keeps no state from a call that raises.
    The rows of each plainly written run of lines (see ``table_runs``) go to
    ``parse`` together, without a pass per line. If that raises, or the run is
    not plainly written, they go again one at a time, so the error is the first
    bad line's, as ``line N: message``; a malformed row raises in its place in
    file order.
    """
    expected = list(columns)
    source = iter(lines)
    line_number = 0
    for line in source:
        line_number += 1
        row = line.rstrip("\r\n")
        if not row or row.startswith("#"):
            continue
        if [name.strip() for name in row.split(",")] != expected:
            raise ValueError(f"line {line_number}: expected header row {','.join(expected)}")
        break
    else:
        raise ValueError(f"line {line_number + 1}: no header row: expected {','.join(expected)}")
    for first, run, fields in table_runs(source, len(expected), line_number + 1):
        if fields is not None:
            try:
                parsed = parse(fields)
            except ValueError:
                pass  # parsed again below, a row at a time, to name the first bad line
            else:
                yield parsed
                continue
        yield from _parse_rows(enumerate(run, first), len(expected), parse)


def _parse_rows(
    numbered: Iterable[tuple[int, str]], width: int, parse: Callable[[list[list[str]]], _T]
) -> Iterator[_T]:
    """``parse`` over the rows of numbered lines up to the first malformed row: all at once, or, if
    that raises, one row at a time with each error naming its line."""
    rows: list[tuple[int, list[str]]] = []
    malformed = None
    for line_number, line in numbered:
        row = line.rstrip("\r\n")
        if not row or row.startswith("#"):
            continue
        fields = row.split(",")
        if len(fields) != width:
            malformed = ValueError(f"line {line_number}: expected {width} fields, got {len(fields)}")
            break
        rows.append((line_number, [field.strip() or field for field in fields]))
    if rows:
        try:
            parsed = parse([list(column) for column in zip(*(fields for _, fields in rows))])
        except ValueError:
            for line_number, fields in rows:
                try:
                    parsed = parse([[field] for field in fields])
                except ValueError as exc:
                    raise ValueError(f"line {line_number}: {exc}") from None
                yield parsed
        else:
            yield parsed
    if malformed is not None:
        raise malformed


def _plain_columns(block: list[str], width: int) -> list[list[str]] | None:
    """The fields of a block of table lines as ``width`` columns, or None unless the block is
    ASCII (so holds no U+FFFD), every line but the last ends in ``\\n`` or ``\\r\\n`` (the last
    one may too), none is blank or starts with ``#``, no whitespace or NUL appears but those line
    ends, and each row has ``width - 1`` commas."""
    text = "".join(block).replace("\r\n", "\n")  # a CRLF line end reads as LF; other \r fail below
    if block[-1].endswith("\n"):
        text = text[:-1]
    row = "," * (width - 1)
    if (
        not text.isascii()
        # the commas, line breaks, other whitespace and NULs, in order: exactly the rows' commas
        or text.encode().translate(None, _NOT_SHAPE) != "\n".join(repeat(row, len(block))).encode()
        # every line but the last ends in a line break, so with n-1 of them none holds two (a NUL
        # in a line could fake the mark, but fails the check above)
        or "\0".join(block).count("\n\0") != len(block) - 1
        or "\n" in block
        or "\r\n" in block
        or "" in block
        or text.startswith("#")
        or "\n#" in text
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    return [fields[i::width] for i in range(width)]


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO 8601 timestamp; a trailing Z and naive forms mean UTC."""
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    return to_utc(datetime.fromisoformat(text))


def to_utc(value: datetime) -> datetime:
    """The same instant in UTC; a naive datetime is taken to be UTC."""
    return value.replace(tzinfo=timezone.utc) if value.tzinfo is None else value.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    """Fixed ``YYYY-MM-DDTHH:MM:SSZ`` rendering for report output."""
    return value.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
