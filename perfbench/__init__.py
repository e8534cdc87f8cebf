"""End-to-end benchmark of the reproduction: see perfbench/README.md."""
