"""Randomized benchmarking on linear cluster-state wires.

Import each name from the module that defines it, for example
``from mbqcrb.fitting import fit_decay``. ``import mbqcrb`` loads no module,
so a process imports only the modules it uses: ``run``, ``oracle`` and
``verify`` never load ``fitting``, and no command loads the literal ``wire``.
"""

__version__ = "0.1.0"

# Fewest bootstrap resamples ``fitting.bootstrap_ci`` accepts. It lives here
# because the CLI's help text quotes it without loading ``fitting``.
MIN_RESAMPLES = 100
