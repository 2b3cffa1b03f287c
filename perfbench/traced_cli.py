"""Run ``hybandit`` with span tracing: ``traced_cli.py SPANS_OUT -- HYBANDIT_ARGS...``."""

import sys

import spans

if __name__ == "__main__":
    sys.exit(spans.main(sys.argv[1:]))
