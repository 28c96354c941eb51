"""Set-up cost a user pays in a fresh process: import the CLI, parse inputs.

Usage: ``PYTHONPATH=src python3 perfbench/setup_probe.py FILE...``.  CSV
files go through ``read_data_csv`` and bag-of-words files through
``read_uci``, the readers ``meanfield fit`` and ``meanfield eval`` use.
"""

import sys

import meanfield.cli  # noqa: F401  (the import is part of what is timed)
from meanfield.gmm import read_data_csv
from meanfield.lda import read_uci

for path in sys.argv[1:]:
    (read_data_csv if path.endswith(".csv") else read_uci)(path)
