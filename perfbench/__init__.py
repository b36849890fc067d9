"""End-to-end benchmark of the reproduction's data path, with per-layer
attribution from a separately traced run. See README.md."""
