"""``repro cache stats|clear``: inspect or empty the persistent result cache."""

from __future__ import annotations

import argparse

from repro.util.tables import format_kv


def cache_args(p: argparse.ArgumentParser) -> None:
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "show cached-entry counts and on-disk size"),
        ("clear", "delete every cached entry"),
    ):
        sp = cache_sub.add_parser(name, help=help_text)
        sp.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="cache directory (default: REPRO_CACHE_DIR)")


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import default_cache

    # ``main`` has already pointed the default cache at ``--cache-dir``;
    # without it the default cache reads REPRO_CACHE_DIR.
    store = default_cache()
    where = (str(store.disk.root) if store.disk is not None
             else "(memory only; set REPRO_CACHE_DIR)")
    if args.cache_command == "stats":
        print(format_kv(
            {
                "disk entries": store.stats().disk_entries,
                "disk bytes": store.disk.size_bytes() if store.disk else 0,
            },
            title=f"result cache at {where}",
        ))
        return 0
    dropped = store.clear()
    print(f"cleared {dropped.get('disk', 0)} disk entr"
          f"{'y' if dropped.get('disk', 0) == 1 else 'ies'} at {where}")
    return 0
