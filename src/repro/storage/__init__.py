"""Storage layer: tables, partitioning, statistics and buffer modelling.

Tables are column-oriented (numpy arrays) and hash-partitioned across the
disks of the simulated parallel system.  The catalog keeps per-table and
per-column statistics used by the optimizer; the buffer-pool model decides
which tables are memory-resident, which drives the disk-I/O metric exactly
as on the paper's systems (larger configurations hold all of TPC-DS in
memory and report zero disk I/Os).
"""
