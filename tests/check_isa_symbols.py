#!/usr/bin/env python3
"""Fails when an ISA-variant object file defines a shared symbol.

    check_isa_symbols.py [--nm nm] <variant>=<object.o> [<variant>=<object.o> ...]

Each kernel variant TU (src/kernels/variant_<isa>.cpp) is compiled with its
own -m flags. If one defines a weak or unique symbol (nm types W, V, u) —
an out-of-line std::vector member, an inline helper from a shared header,
a template instantiation — the linker keeps ONE copy of it for the whole
program, and baseline callers may end up running the AVX-512 copy. So every
such symbol must sit in the variant's own namespace,
pecan::kernels::<variant>::. Strong global symbols outside it are rejected
too: the variant's only export is its kernel table. Sanitizer runtime
symbols (__asan*, __odr_asan*, asan.*, __tsan*, __ubsan*, ...) are
instrumentation, not program code, and are ignored.

Optimized builds often inline such code away, so the object would look
clean while the source breaks the rule. The variant rules (no allocation,
no exceptions) are therefore also checked on the undefined side: a
reference to operator new/delete, the C++ exception runtime or
std::__throw_* fails as well.
"""
import argparse
import subprocess
import sys

SHARED_TYPES = set("WVu")
FORBIDDEN_REFS = ("operator new", "operator delete", "__cxa_", "std::__throw_", "_Unwind_Resume")
SANITIZER_PREFIXES = ("__asan", "___asan", "__odr_asan", "__tsan", "__ubsan", "__sanitizer",
                      "asan.", "tsan.")


def offending(nm, variant, obj):
    out = subprocess.run([nm, "-C", obj], check=True, capture_output=True, text=True).stdout
    prefix = f"pecan::kernels::{variant}::"
    bad = []
    for line in out.splitlines():
        parts = line.split(None, 2) if line[:1] != " " else [""] + line.split(None, 1)
        if len(parts) != 3:
            continue
        _, kind, name = parts
        if kind == "U":
            if name.startswith(FORBIDDEN_REFS):
                bad.append(f"U {name} (variant kernels must not allocate or throw)")
            continue
        shared = kind in SHARED_TYPES or kind.isupper()
        if not shared or name.startswith(prefix) or name.startswith(SANITIZER_PREFIXES):
            continue
        bad.append(f"{kind} {name} is outside {prefix}")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm")
    parser.add_argument("objects", nargs="+", metavar="variant=object")
    args = parser.parse_args()
    failed = False
    for spec in args.objects:
        variant, _, obj = spec.partition("=")
        if not obj:
            parser.error(f"expected <variant>=<object>, got {spec!r}")
        bad = offending(args.nm, variant, obj)
        for sym in bad:
            print(f"{obj}: {sym}")
        print(f"{variant}: {len(bad)} violation(s)")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
