#!/usr/bin/env python3
"""Books the samples `sigprof.c` wrote.

    book.py sigprof.<pid>.rips [sigprof.<pid>.maps] [--object NAME]
            [--statements FUNC] [--top N]

First the samples are split by the mapped object they fall in (the
program, libc, the loader, the vdso, ...), so time spent in the C
library's malloc, free and memcpy shows as its own share instead of
vanishing from an attribution made inside the program only. Then the
samples of each object that has symbols (every object whose path
contains NAME, by default the largest one) are resolved with
`addr2line -i`, which lists the chain of inlined frames at an address,
and booked twice:

* by innermost frame: the function and source line the sample was
  executing, after inlining (the statement that cost the time);
* by function, inlined or not: every function on the sample's inline
  chain gets the sample once (what each function cost, callees inlined
  into it included);
* with `--statements FUNC`, by statement of the functions whose name
  contains FUNC: a sample goes to the line of that function it was in,
  or that called the inlined code it was in.

A stripped object such as the system libc has no symbols but its
exported ones. A sample inside an exported function (its size from
`nm -D -S`) is booked under its name; a sample past that function's end
is in a local one (glibc's `memcpy` variants, malloc's internals) and is
booked as `<unexported after SYM>`, SYM being the exported function
just below it. Read those lines as address ranges, not as functions.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_maps(path):
    """Executable mappings as sorted (start, end, file offset, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 5 or "x" not in parts[1]:
                continue
            start, end = (int(v, 16) for v in parts[0].split("-"))
            name = parts[5].strip() if len(parts) == 6 else "[anonymous]"
            maps.append((start, end, int(parts[2], 16), name))
    maps.sort()
    return maps


def load_segments(path):
    """The PT_LOAD segments of an ELF64 file as (offset, size, vaddr)."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        end = "<" if ident[5] == 1 else ">"
        phoff = struct.unpack_from(end + "Q", ident, 32)[0]
        phentsize, phnum = struct.unpack_from(end + "HH", ident, 54)
        segs = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack(
                end + "IIQQQQ", f.read(40)
            )
            if p_type == 1:
                segs.append((p_offset, p_filesz, p_vaddr))
        return segs


def to_vaddr(segs, offset):
    """The link-time address addr2line expects for a file offset."""
    for p_offset, size, vaddr in segs:
        if p_offset <= offset < p_offset + size:
            return offset - p_offset + vaddr
    return offset


def resolve(obj, addrs):
    """address -> inline chain [(function, file:line)], innermost first."""
    if not addrs:
        return {}
    inp = "".join(f"{a:#x}\n" for a in addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
        input=inp, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            cur = int(line, 16)
            chains[cur] = []
            i += 1
            continue
        if cur is not None and i + 1 < len(out):
            where = out[i + 1].split(" (discriminator")[0]
            file, _, lineno = where.rpartition(":")
            chains[cur].append((line, f"{os.path.basename(file)}:{lineno}"))
        i += 2
    return chains


def exported_functions(obj):
    """A stripped object's exported functions as sorted (address, size,
    name), one per address (the largest of its aliases), from
    `nm -D -S`; None if the object has its own symbol table, which
    addr2line reads."""
    own = subprocess.run(["nm", obj], capture_output=True, text=True).stdout
    if own.strip():
        return None
    out = subprocess.run(
        ["nm", "-D", "-S", "--defined-only", obj], capture_output=True, text=True
    ).stdout
    by_addr = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2] in "TtWwi":
            addr, size = int(parts[0], 16), int(parts[1], 16)
            if size > by_addr.get(addr, (0, ""))[0]:
                by_addr[addr] = (size, parts[3].split("@")[0])
    return sorted((addr, size, name) for addr, (size, name) in by_addr.items())


def bounded_name(syms, addr):
    """The exported function `addr` lies in, or `<unexported after SYM>`
    past the end of the nearest one below it."""
    k = bisect.bisect_right(syms, (addr, float("inf"), "")) - 1
    if k < 0:
        return "<unexported before any export>"
    start, size, name = syms[k]
    return name if addr < start + size else f"<unexported after {name}>"


def shorten(name, width=90):
    return name if len(name) <= width else name[: width - 1] + "…"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rips")
    ap.add_argument("maps", nargs="?")
    ap.add_argument("--object", help="book the objects whose path contains this")
    ap.add_argument("--statements", metavar="FUNC", help="book by the lines of these functions")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    maps_path = args.maps or args.rips.rsplit(".", 1)[0] + ".maps"

    maps = read_maps(maps_path)
    starts = [m[0] for m in maps]
    with open(args.rips) as f:
        rips = [int(l, 16) for l in f if l.strip()]
    total = len(rips)
    if total == 0:
        sys.exit("no samples")

    by_obj = collections.defaultdict(list)
    for ip in rips:
        k = bisect.bisect_right(starts, ip) - 1
        if k >= 0 and ip < maps[k][1]:
            start, _, off, name = maps[k]
            by_obj[name].append(ip - start + off)
        else:
            by_obj["[unmapped]"].append(ip)

    print(f"{total} samples")
    print("== by mapped object ==")
    for name, offs in sorted(by_obj.items(), key=lambda kv: -len(kv[1])):
        print(f"{100 * len(offs) / total:6.1f}%  {name}")

    largest = max(by_obj, key=lambda n: len(by_obj[n]))
    chosen = [n for n in by_obj if (args.object or largest) in n and os.path.isfile(n)]
    for obj in chosen:
        segs = load_segments(obj)
        vaddrs = [to_vaddr(segs, off) for off in by_obj[obj]]
        chains = resolve(obj, sorted(set(vaddrs)))
        syms = exported_functions(obj)
        if syms:
            for a, chain in chains.items():
                chains[a] = [(bounded_name(syms, a), chain[0][1] if chain else "??:0")]
        inner, funcs, lines = collections.Counter(), collections.Counter(), collections.Counter()
        for a in vaddrs:
            chain = chains.get(a) or [("??", "??:0")]
            inner[f"{chain[0][0]}  {chain[0][1]}"] += 1
            for fn in {fn for fn, _ in chain}:
                funcs[fn] += 1
            if args.statements:
                # The frame's own name, not its generic arguments: a
                # closure defined in FUNC names FUNC only in those.
                at = next(
                    (f"{fn}  {where}" for fn, where in chain if args.statements in fn.split("<")[0]),
                    None,
                )
                if at:
                    lines[at] += 1
        print(f"== {obj}: by innermost frame ==")
        for key, n in inner.most_common(args.top):
            print(f"{100 * n / total:6.1f}%  {shorten(key)}")
        print(f"== {obj}: by function, inlined frames included ==")
        for key, n in funcs.most_common(args.top):
            print(f"{100 * n / total:6.1f}%  {shorten(key)}")
        if args.statements:
            print(f"== {obj}: by statement of {args.statements} ==")
            for key, n in lines.most_common(args.top):
                print(f"{100 * n / total:6.1f}%  {shorten(key)}")


if __name__ == "__main__":
    main()
