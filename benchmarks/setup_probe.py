"""Set-up probe: the work every command does before its own.

    python3 benchmarks/setup_probe.py COMMAND [KEY.PATH=VALUE ...]

Imports the package, runs ``load_config`` and ``RunConfig.resolve`` (basis
and radial shells) with the given overrides, and builds the grid COMMAND
builds.  The benchmark times this whole process as ``setup_s``.
"""

import sys


def main(argv):
    command, overrides = argv[0], argv[1:]
    from vortexcage import cli  # noqa: F401  (the command's import cost)
    from vortexcage.config import RunConfig, load_config
    run = RunConfig.resolve(load_config(None, overrides))
    if command == "charge-sweep":
        charges = [int(c) for c in run.raw["scan"]["charges"]]
        run.make_grid(max_abs_charge=max((abs(c) for c in charges), default=1))
    else:
        run.make_grid()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
