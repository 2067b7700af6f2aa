"""E19: the end-to-end flow benchmark (see README.md in this directory)."""
