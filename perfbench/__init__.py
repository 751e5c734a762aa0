"""End-to-end and per-layer benchmark of the hahn-paths CLI (stdlib only)."""
