"""The repo's benchmark (see README.md); not part of the ``repro`` package."""
