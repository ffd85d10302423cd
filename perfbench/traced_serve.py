"""``repro serve`` with the per-layer ledger installed, for traced runs.

Usage::

    python3 perfbench/traced_serve.py LEDGER_DIR START_FILE serve DESIGN ...

Everything after ``START_FILE`` is the ``repro`` command line.  The
server and the compile worker it forks count nothing until the client
creates ``START_FILE``, and each writes its ledger into ``LEDGER_DIR``
when it exits.
"""

from __future__ import annotations

import sys

import common
import layers


def main() -> int:
    ledger_dir, start_file, *argv = sys.argv[1:]
    common.use_src()
    import repro.cli
    import repro.serve  # noqa: F401 - load the server's modules before wrapping

    layers.install()
    layers.LEDGER.start_file = start_file
    layers.dump_at_exit(ledger_dir)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
