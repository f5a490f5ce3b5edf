"""Write ``src/faasbench/_ziggurat.py``, numpy's six ziggurat tables, from the
installed numpy wheel.

    python3 scripts/ziggurat_tables.py [OUT]

numpy's ``Generator.normal`` and ``Generator.exponential`` use the ziggurat
method (Marsaglia & Tsang 2000) with tables of 256 entries each: ``ki``,
``wi`` and ``fi`` for the normal, ``ke``, ``we`` and ``fe`` for the
exponential. numpy compiled them from constants of its own, which a
recomputation of the Marsaglia-Tsang recurrence misses by an ulp or more on
most entries, and a draw that must equal numpy's needs them bit for bit. So
this script reads them from the compiled code: the ``static const`` arrays
``ki_double`` ... ``fe_double`` of the object file
``src_distributions_distributions.c.o`` in the wheel's
``numpy/random/lib/libnpyrandom.a``. It reads the ``ar`` archive and the
ELF64 symbol table itself, with the standard library alone, and it does not
import numpy.

The written module holds each table as one hex string of its 2,048
little-endian bytes (``ki`` and ``ke`` are unsigned 64-bit integers, the
others doubles), so it compiles in no time, followed by numpy's license
notice for that code, copied from the wheel. ``faasbench.rng`` decodes the
tables once on import. ``tests/test_rng.py`` runs this script and compares
its output with the committed module.
"""

from __future__ import annotations

import importlib.metadata
import struct
import sys
from pathlib import Path

TABLES = ("ki_double", "wi_double", "fi_double", "ke_double", "we_double", "fe_double")
TABLE_BYTES = 256 * 8
ARCHIVE = "numpy/random/lib/libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
LICENSE = "licenses/numpy/random/src/distributions/LICENSE.md"
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "src" / "faasbench" / "_ziggurat.py"
SHT_SYMTAB = 2


def ar_members(data: bytes) -> dict[str, bytes]:
    """The members of a System V (GNU) ``ar`` archive by name."""
    if data[:8] != b"!<arch>\n":
        raise ValueError("not an ar archive")
    members, long_names, pos = {}, b"", 8
    while pos < len(data):
        header = data[pos:pos + 60]
        name, size = header[:16].decode("ascii").rstrip(), int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)  # members start on even offsets
        if name == "//":
            long_names = body
        elif name[1:].isdigit():  # "/N": the name starts at offset N of the "//" member
            start = int(name[1:])
            members[long_names[start:long_names.index(b"/\n", start)].decode("ascii")] = body
        elif name not in ("/", "/SYM64/"):  # skip the symbol index
            members[name.rstrip("/")] = body
    return members


def elf_symbols(elf: bytes, wanted: tuple[str, ...]) -> dict[str, bytes]:
    """The bytes of each ``wanted`` symbol of a little-endian ELF64
    relocatable object, read from its section at the symbol's offset."""
    if elf[:6] != b"\x7fELF\x02\x01":
        raise ValueError("not a little-endian ELF64 object")
    (shoff,) = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    # (type, offset, size, link) of each section header
    sections = [struct.unpack_from("<4xI16xQQI", elf, shoff + i * shentsize) for i in range(shnum)]
    found = {}
    for sh_type, offset, size, link in sections:
        if sh_type != SHT_SYMTAB:
            continue
        strtab = sections[link][1]
        for pos in range(offset, offset + size, 24):
            st_name, st_shndx, st_value, st_size = struct.unpack_from("<I2xHQQ", elf, pos)
            name = elf[strtab + st_name:elf.index(b"\0", strtab + st_name)].decode("ascii")
            if name in wanted:
                start = sections[st_shndx][1] + st_value
                found[name] = elf[start:start + st_size]
    return found


def wheel_file(name: str) -> bytes:
    """A file the installed numpy distribution lists, by its path in the wheel."""
    dist = importlib.metadata.distribution("numpy")
    path = next(p for p in dist.files if p.as_posix().endswith(name))
    return Path(dist.locate_file(path)).read_bytes()


def module_text() -> str:
    dist = importlib.metadata.distribution("numpy")
    tables = elf_symbols(ar_members(wheel_file(ARCHIVE))[MEMBER], TABLES)
    missing = [name for name in TABLES if len(tables.get(name, b"")) != TABLE_BYTES]
    if missing:
        raise ValueError(f"{ARCHIVE} has no {TABLE_BYTES}-byte table {missing[0]!r}")
    notice = wheel_file(LICENSE).decode("utf-8").rstrip()
    lines = [
        f'"""numpy {dist.version}\'s ziggurat tables, each 256 little-endian 64-bit',
        "values as hex: ``ki`` and ``ke`` unsigned integers, the others doubles.",
        "",
        "Written by ``scripts/ziggurat_tables.py`` from the numpy wheel's",
        f"``{ARCHIVE}``; do not edit. numpy's license notice for",
        "the code they come from follows.",
        "",
        *(line.rstrip() for line in notice.splitlines()),
        '"""',
        "",
        *(f'{name} = "{tables[name].hex()}"' for name in TABLES),
    ]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    out.write_text(module_text(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
