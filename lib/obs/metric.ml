(** The fixed universe of instrumented operations.

    Metrics attribute work to a layer of the stack, mirroring the
    per-primitive accounting of the paper's Table 1:
    - [Rrr_*]: static RRR bitvector primitives (the static trie's β),
      and [Rrr_unrank], the block positions their decoder steps through
      when it unranks an offset (a plain-coded blob takes none);
    - [App_*]: append-only segmented bitvector primitives (Section 4.1) —
      frozen-segment queries additionally count as [Rrr_*], since they
      delegate to the segment's RRR encoding;
    - [Dbv_*]: dynamic chunk-tree bitvector primitives (Section 4.2,
      RLE+γ and gap+δ codecs alike);
    - [Wt_*]: whole trie-level operations and mutations;
    - [Wt_nodes_visited] / [Wt_bits_consumed]: traversal work — trie
      nodes examined and string bits consumed (label lcp plus branch
      bits) along root-to-node paths, i.e. the O(|s| + h_s) term;
    - [Durable_*]: the write-ahead log the tiered store keeps — WAL
      records appended and replayed, and torn-tail bytes dropped
      during recovery;
    - [Exec_*]: the batch query engine — batches executed, operations
      per batch, and the per-level latency histogram of its
      level-by-level traversal;
    - [Bv_cursor_*]: rank-cursor cache behaviour shared by every
      bitvector implementation — a hit answers a query from the cached
      (block, rank-so-far) state with an in-block popcount or a short
      forward walk, a miss repositions from the directory;
    - [Par_*]: the multicore serving layer — parallel batches
      dispatched, shards they were split into, pool tasks executed
      (and the subset the submitting domain stole back from the queue),
      queue-wait and per-shard-run latency histograms, and dynamic-trie
      snapshots published for isolated readers;
    - [Analytics_*]: the range suite's byte façade ([lib/core/range.ml]) —
      one count per front-door invocation of [select_all],
      [range_count], [range_distinct] and [range_topk]; the same ids
      key the per-call latency histograms recorded at the byte-string
      façade;
    - [Flat_*]: the flat static arena ([lib/core]'s [Flat_wt], format
      v3) — arenas built from pointer tries, saved to v3 containers,
      and opened by [mmap] (zero-copy) or full-CRC copy; the same ids
      key the build/save/open latency histograms;
    - [Tiered_*]: the write-optimized tiered store ([lib/tiered]) —
      ingests acknowledged (and their payload bytes), WAL fsync
      barriers ([flush]), compactions committed (the same id keys the
      compaction-duration histogram) and the run-file bytes they wrote
      (write amplification = [tiered_compact_bytes] /
      [tiered_ingest_bytes]), plus two sampled histograms:
      [Tiered_delta_strings] (delta size at each seal) and
      [Tiered_run_count] (immutable run count after each commit);
    - [Serve_*]: the TCP serving front-end ([lib/serve]) — connections
      accepted and defensively closed, query requests admitted,
      micro-batches flushed, requests shed with [Overloaded]
      (admission control) or expired with [Deadline_exceeded], wire
      frames rejected by the bounded decoder, plus two histograms:
      [Serve_queue_depth] (pending-queue depth sampled at each flush)
      and [Serve_queue_wait] (admit-to-execute wait, ns), and
      [Serve_slow] — requests whose queue-wait + batch-execution time
      crossed the server's slow-query threshold (each one also leaves
      an exemplar in the slow-query ring, see [lib/serve/server.ml]);
    - [Rt_*]: the OCaml 5 runtime, observed through the
      [Runtime_events] bridge ([lib/obs/runtime.ml]) — minor and major
      GC pause histograms ([Rt_gc_minor]/[Rt_gc_major], ns per
      collection phase on whichever domain ran it), [Rt_gc_ns] (total
      nanoseconds spent in GC phases, summed over domains; the
      per-domain split is exposed programmatically by
      [Runtime.per_domain_gc_ns]) and [Rt_events_lost] (ring-buffer
      events the consumer missed — nonzero means the poll cadence is
      too slow for the event rate).

    Counter metrics count invocations; the same ids key the latency
    histograms recorded by {!Probe.time} at the string-API layer. *)

type t =
  | Rrr_rank
  | Rrr_select
  | Rrr_access
  | Rrr_unrank
  | App_append
  | App_rank
  | App_select
  | App_access
  | Dbv_insert
  | Dbv_delete
  | Dbv_rank
  | Dbv_select
  | Dbv_access
  | Wt_access
  | Wt_rank
  | Wt_select
  | Wt_rank_prefix
  | Wt_select_prefix
  | Wt_insert
  | Wt_delete
  | Wt_append
  | Wt_node_split
  | Wt_node_merge
  | Wt_nodes_visited
  | Wt_bits_consumed
  | Durable_wal_append
  | Durable_wal_replay
  | Durable_wal_dropped_bytes
  | Exec_batch
  | Exec_batch_ops
  | Exec_level
  | Bv_cursor_hit
  | Bv_cursor_miss
  | Par_batch
  | Par_shards
  | Par_task
  | Par_steal
  | Par_queue_wait
  | Par_shard_run
  | Par_snapshot_publish
  | Analytics_select_all
  | Analytics_range_count
  | Analytics_distinct
  | Analytics_topk
  | Serve_accept
  | Serve_conn_close
  | Serve_request
  | Serve_batch
  | Serve_shed
  | Serve_deadline
  | Serve_bad_frame
  | Serve_queue_depth
  | Serve_queue_wait
  | Flat_build
  | Flat_save
  | Flat_open_mmap
  | Flat_open_copy
  | Tiered_ingest
  | Tiered_ingest_bytes
  | Tiered_flush
  | Tiered_compact
  | Tiered_compact_bytes
  | Tiered_delta_strings
  | Tiered_run_count
  | Serve_slow
  | Rt_gc_minor
  | Rt_gc_major
  | Rt_gc_ns
  | Rt_events_lost

let count = 69

let index = function
  | Rrr_rank -> 0
  | Rrr_select -> 1
  | Rrr_access -> 2
  | Rrr_unrank -> 3
  | App_append -> 4
  | App_rank -> 5
  | App_select -> 6
  | App_access -> 7
  | Dbv_insert -> 8
  | Dbv_delete -> 9
  | Dbv_rank -> 10
  | Dbv_select -> 11
  | Dbv_access -> 12
  | Wt_access -> 13
  | Wt_rank -> 14
  | Wt_select -> 15
  | Wt_rank_prefix -> 16
  | Wt_select_prefix -> 17
  | Wt_insert -> 18
  | Wt_delete -> 19
  | Wt_append -> 20
  | Wt_node_split -> 21
  | Wt_node_merge -> 22
  | Wt_nodes_visited -> 23
  | Wt_bits_consumed -> 24
  | Durable_wal_append -> 25
  | Durable_wal_replay -> 26
  | Durable_wal_dropped_bytes -> 27
  | Exec_batch -> 28
  | Exec_batch_ops -> 29
  | Exec_level -> 30
  | Bv_cursor_hit -> 31
  | Bv_cursor_miss -> 32
  | Par_batch -> 33
  | Par_shards -> 34
  | Par_task -> 35
  | Par_steal -> 36
  | Par_queue_wait -> 37
  | Par_shard_run -> 38
  | Par_snapshot_publish -> 39
  | Analytics_select_all -> 40
  | Analytics_range_count -> 41
  | Analytics_distinct -> 42
  | Analytics_topk -> 43
  | Serve_accept -> 44
  | Serve_conn_close -> 45
  | Serve_request -> 46
  | Serve_batch -> 47
  | Serve_shed -> 48
  | Serve_deadline -> 49
  | Serve_bad_frame -> 50
  | Serve_queue_depth -> 51
  | Serve_queue_wait -> 52
  | Flat_build -> 53
  | Flat_save -> 54
  | Flat_open_mmap -> 55
  | Flat_open_copy -> 56
  | Tiered_ingest -> 57
  | Tiered_ingest_bytes -> 58
  | Tiered_flush -> 59
  | Tiered_compact -> 60
  | Tiered_compact_bytes -> 61
  | Tiered_delta_strings -> 62
  | Tiered_run_count -> 63
  | Serve_slow -> 64
  | Rt_gc_minor -> 65
  | Rt_gc_major -> 66
  | Rt_gc_ns -> 67
  | Rt_events_lost -> 68

let all =
  [|
    Rrr_rank; Rrr_select; Rrr_access; Rrr_unrank; App_append; App_rank; App_select;
    App_access; Dbv_insert; Dbv_delete; Dbv_rank; Dbv_select; Dbv_access; Wt_access; Wt_rank;
    Wt_select; Wt_rank_prefix; Wt_select_prefix; Wt_insert; Wt_delete; Wt_append;
    Wt_node_split; Wt_node_merge; Wt_nodes_visited; Wt_bits_consumed;
    Durable_wal_append; Durable_wal_replay; Durable_wal_dropped_bytes;
    Exec_batch; Exec_batch_ops; Exec_level; Bv_cursor_hit; Bv_cursor_miss;
    Par_batch; Par_shards; Par_task; Par_steal; Par_queue_wait; Par_shard_run;
    Par_snapshot_publish; Analytics_select_all; Analytics_range_count;
    Analytics_distinct; Analytics_topk; Serve_accept; Serve_conn_close;
    Serve_request; Serve_batch; Serve_shed; Serve_deadline; Serve_bad_frame;
    Serve_queue_depth; Serve_queue_wait; Flat_build; Flat_save; Flat_open_mmap;
    Flat_open_copy; Tiered_ingest; Tiered_ingest_bytes; Tiered_flush;
    Tiered_compact; Tiered_compact_bytes; Tiered_delta_strings; Tiered_run_count;
    Serve_slow; Rt_gc_minor; Rt_gc_major; Rt_gc_ns; Rt_events_lost;
  |]

let name = function
  | Rrr_rank -> "rrr_rank"
  | Rrr_select -> "rrr_select"
  | Rrr_access -> "rrr_access"
  | Rrr_unrank -> "rrr_unrank"
  | App_append -> "appendable_append"
  | App_rank -> "appendable_rank"
  | App_select -> "appendable_select"
  | App_access -> "appendable_access"
  | Dbv_insert -> "dynbv_insert"
  | Dbv_delete -> "dynbv_delete"
  | Dbv_rank -> "dynbv_rank"
  | Dbv_select -> "dynbv_select"
  | Dbv_access -> "dynbv_access"
  | Wt_access -> "wt_access"
  | Wt_rank -> "wt_rank"
  | Wt_select -> "wt_select"
  | Wt_rank_prefix -> "wt_rank_prefix"
  | Wt_select_prefix -> "wt_select_prefix"
  | Wt_insert -> "wt_insert"
  | Wt_delete -> "wt_delete"
  | Wt_append -> "wt_append"
  | Wt_node_split -> "wt_node_split"
  | Wt_node_merge -> "wt_node_merge"
  | Wt_nodes_visited -> "wt_nodes_visited"
  | Wt_bits_consumed -> "wt_bits_consumed"
  | Durable_wal_append -> "durable_wal_append"
  | Durable_wal_replay -> "durable_wal_replay"
  | Durable_wal_dropped_bytes -> "durable_wal_dropped_bytes"
  | Exec_batch -> "exec_batch"
  | Exec_batch_ops -> "exec_batch_ops"
  | Exec_level -> "exec_level"
  | Bv_cursor_hit -> "bv_cursor_hit"
  | Bv_cursor_miss -> "bv_cursor_miss"
  | Par_batch -> "par_batch"
  | Par_shards -> "par_shard_count"
  | Par_task -> "par_task"
  | Par_steal -> "par_steal"
  | Par_queue_wait -> "par_queue_wait"
  | Par_shard_run -> "par_shard_run"
  | Par_snapshot_publish -> "par_snapshot_publish"
  | Analytics_select_all -> "analytics_select_all"
  | Analytics_range_count -> "analytics_range_count"
  | Analytics_distinct -> "analytics_distinct"
  | Analytics_topk -> "analytics_topk"
  | Serve_accept -> "serve_accept"
  | Serve_conn_close -> "serve_conn_close"
  | Serve_request -> "serve_request"
  | Serve_batch -> "serve_batch"
  | Serve_shed -> "serve_shed"
  | Serve_deadline -> "serve_deadline_expired"
  | Serve_bad_frame -> "serve_bad_frame"
  | Serve_queue_depth -> "serve_queue_depth"
  | Serve_queue_wait -> "serve_queue_wait"
  | Flat_build -> "flat_build"
  | Flat_save -> "flat_save"
  | Flat_open_mmap -> "flat_open_mmap"
  | Flat_open_copy -> "flat_open_copy"
  | Tiered_ingest -> "tiered_ingest"
  | Tiered_ingest_bytes -> "tiered_ingest_bytes"
  | Tiered_flush -> "tiered_flush"
  | Tiered_compact -> "tiered_compact"
  | Tiered_compact_bytes -> "tiered_compact_bytes"
  | Tiered_delta_strings -> "tiered_delta_strings"
  | Tiered_run_count -> "tiered_run_count"
  | Serve_slow -> "serve_slow_query"
  | Rt_gc_minor -> "rt_gc_minor"
  | Rt_gc_major -> "rt_gc_major"
  | Rt_gc_ns -> "rt_gc_ns"
  | Rt_events_lost -> "rt_events_lost"

let of_name s = Array.find_opt (fun m -> name m = s) all
