"""End-to-end benchmark of the sweep and serve paths (see ``run.py``)."""
