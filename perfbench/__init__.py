"""perfbench: the repository benchmark (see run.py)."""
