"""Warm-start store serialisation discipline.

Every byte the store persists goes through the one versioned,
digest-trailed record format in src/store/format.cpp. A raw fread/fwrite
anywhere else is a second serialisation path: unversioned (no format
gate on read-back), unverified (no digest, so truncation and bit rot
read as data) and invisible to the store's corrupt-entry accounting.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# The sanctioned serialisation path: the record format implementation.
STORE_IO_ALLOWLIST = {PurePosixPath("src/store/format.cpp")}

_RAW_IO = re.compile(r"\b(?:std\s*::\s*)?(fread|fwrite)\s*\(")
_STD_STREAM = re.compile(r"\b(?:std\s*::\s*)?(stdout|stderr)\s*\)")


@rule(
    "store-unversioned-io",
    "raw fread/fwrite outside src/store/format.cpp; use the record format",
    """Persistent artifacts must be written through store::write_record /
read back through store::read_record (src/store/format.{hpp,cpp}): the
record format carries a magic, a format version and a SHA-256 trailer,
so a reader can tell truncation, bit rot and foreign-version files apart
from data and degrade to a cold start instead of consuming garbage. A
raw std::fread/std::fwrite call anywhere else creates a second, silent
serialisation path with none of those guarantees — exactly the drift
the format file exists to prevent. No compiler or sanitizer tells a raw
fwrite of internal state from any other write, and the record-format
tests cover only the calls that go through the format.
src/store/format.cpp itself is allowlisted as the single sanctioned
implementation.

Console output is not serialisation: fwrite to stdout/stderr (e.g. the
table printer's bulk write) is exempt. Text-mode std::ifstream /
std::ofstream readers of *foreign* formats (TSPLIB files, tour dumps)
are out of scope — the rule targets the C stdio block-I/O calls that
byte-serialise internal state.""",
)
def _store_unversioned_io(ctx: FileContext):
    if PurePosixPath(ctx.rel) in STORE_IO_ALLOWLIST:
        return
    for m in _RAW_IO.finditer(ctx.code):
        # Exempt console writes: the call's FILE* argument is
        # stdout/stderr on the same statement.
        line = line_of(ctx.code, m.start())
        stmt_end = ctx.code.find(";", m.start())
        stmt = ctx.code[m.start():stmt_end if stmt_end != -1 else m.endpos]
        if m.group(1) == "fwrite" and _STD_STREAM.search(stmt):
            continue
        yield ctx.finding(
            line, "store-unversioned-io",
            f"raw {m.group(1)} outside src/store/format.cpp; persist "
            "through store::write_record/read_record")
