package repro.perfbench

/** The per-layer metrics of a traced run (README.md says which end-to-end
  * metric each should move). Layers a workload does not exercise read 0.
  */
object Layers {
  private val MB = 1024.0 * 1024.0

  def metrics(tr: Tracer, sessionS: Double, setups: Seq[Seq[(String, Double)]],
              traced: PassResult, stream: Option[StreamRun.Result], untracedBusyMs: Double,
              jvmSetup: JvmSnapshot, jvmMain: JvmSnapshot): Seq[(String, Double, String)] = {
    def phase(name: String): Double =
      Stats.median(setups.map(_.collect { case (`name`, s) => s }.sum))
    def secs(span: String): Double = tr.ms(span).sum / 1e3
    def us(span: String, q: Double): Double = Stats.percentile(tr.ms(span), q) * 1e3
    def ms(span: String, q: Double): Double = Stats.percentile(tr.ms(span), q)
    def ratio(a: String, b: String): Double =
      if (tr.counter(b) == 0) 0.0 else tr.counter(a) / tr.counter(b)
    val replay = traced.replay
    def fromReplay(f: Replay.Result => Double): Double = replay.map(f).getOrElse(0.0)

    val setupLayers = Seq("core.bihmm.producers", "core.bihmm.consumers", "core.ssrec.collect_events",
                          "core.ssrec.collection_stats", "core.entities.mine",
                          "core.profiles.build", "index.build")
    Seq(("spark.session_s", sessionS, "s")) ++
      setupLayers.map(n => (s"${n}_s", phase(n), "s")) ++
      Seq(
        ("socialdata.items_s", secs("socialdata.items"), "s"),
        ("socialdata.interactions_s", secs("socialdata.interactions"), "s"),
        ("core.ranking.query_of_us_p50", us("core.ranking.query_of", 0.5), "us"),
        ("index.locate_trees_us_p50", us("index.locate_trees", 0.5), "us"),
        ("index.topk_fast_us_p50", us("index.topk_fast", 0.5), "us"),
        ("index.topk_fast_us_p95", us("index.topk_fast", 0.95), "us"),
        ("index.trees_located_mean", ratio("index.trees_located", "query.items"), "count"),
        ("index.located_user_share", ratio("index.located_users", "index.indexed_users"), "ratio"),
        ("index.fast_recall_at_30", traced.query.map(q => Stats.mean(q.recall.toSeq)).getOrElse(0.0), "ratio"),
        ("index.trees_of_category_us_p50", us("index.trees_of_category", 0.5), "us"),
        ("index.topk_exact_us_p50", us("index.topk_exact", 0.5), "us"),
        ("index.topk_exact_us_p95", us("index.topk_exact", 0.95), "us"),
        ("index.trees_exact_mean", ratio("index.trees_exact", "query.items"), "count"),
        ("index.scan_ms_p50", ms("index.scan", 0.5), "ms"),
        ("index.exact_scan_agree_share", ratio("index.scan_agree", "index.scan_checks"), "ratio"),
        ("index.observe_batch_ms_p50", ms("index.observe_batch", 0.5), "ms"),
      ) ++
      Seq("core.profiles.ingest_ms", "core.profiles.refresh_ms", "core.profiles.entry_stats_ms",
          "index.tree_update_ms", "core.bihmm.new_user_ms", "index.observe_other_ms")
        .map(n => (n, tr.counter(n), "ms")) ++
      Seq("index.users_updated", "index.users_new", "index.hash_triads_new",
          "core.profiles.windows_flushed", "index.leaf_updates", "index.ancestor_recomputes",
          "index.distinct_dirty_ancestors")
        .map(n => (n, tr.counter(n), "count")) ++
      Seq(
        ("eval.observe_ms_p50", fromReplay(r => Stats.median(r.observeMs.toSeq)), "ms"),
        ("eval.observe_ms_p95", fromReplay(r => Stats.percentile(r.observeMs.toSeq, 0.95)), "ms"),
        ("eval.observe_batch_size_mean", fromReplay(r => Stats.mean(r.observeSize.toSeq)), "count"),
        ("eval.recommend_ms_p50", fromReplay(r => Stats.median(r.recommendMs.toSeq)), "ms"),
        ("eval.queue_wait_ms_p50", fromReplay(r => Stats.median(r.waitMs.toSeq)), "ms"),
        ("eval.queue_wait_ms_p95", fromReplay(r => Stats.percentile(r.waitMs.toSeq, 0.95)), "ms"),
        ("eval.busy_share", fromReplay(r => r.busyNs.toDouble / math.max(1L, r.wallNs)), "ratio"),
        ("stream.batch_ms_p50", stream.map(s => Stats.median(s.batchMs.toSeq)).getOrElse(0.0), "ms"),
        ("stream.items_per_s", stream.map(_.perSecond).getOrElse(0.0), "1/s"),
        ("stream.p_at_10", stream.map(_.pAt10.value(10)).getOrElse(0.0), "ratio"),
        ("stream.knn_us_p50", us("stream.knn", 0.5), "us"),
        ("stream.state_kb", tr.counter("stream.state_bytes") / 1024.0, "KiB"),
        ("stream.recs_emitted", stream.map(_.recs.toDouble).getOrElse(0.0), "count"),
        ("jvm.setup.gc_ms", jvmSetup.gcMs.toDouble, "ms"),
        ("jvm.setup.alloc_mb", jvmSetup.allocBytes / MB, "MB"),
        ("jvm.main.gc_ms", jvmMain.gcMs.toDouble, "ms"),
        ("jvm.main.alloc_mb", jvmMain.allocBytes / MB, "MB"),
        ("trace.overhead_share", traced.busyMs.sum / math.max(1e-9, untracedBusyMs) - 1.0, "ratio"),
      )
  }
}
