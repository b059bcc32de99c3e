#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "provml/cli/cli.hpp"
#include "provml/common/file_io.hpp"
#include <cmath>

#include "provml/core/run.hpp"
#include "provml/prov/prov_json.hpp"

namespace provml::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("provml_cli_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs the CLI, returning {exit code, stdout, stderr}.
  std::tuple<int, std::string, std::string> run(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_cli(args, out, err);
    return {code, out.str(), err.str()};
  }

  std::string write_run_doc(const std::string& name, double lr) {
    core::RunOptions opts;
    opts.provenance_dir = (dir_ / name).string();
    opts.metric_store = "embedded";
    core::Experiment exp("cli_demo");
    core::Run& r = exp.start_run(opts, name);
    r.log_param("lr", lr);
    r.log_metric("loss", 0.5, 0);
    r.log_artifact("ckpt", "ckpt.pt");
    EXPECT_TRUE(r.finish().ok());
    return r.provenance_path();
  }

  fs::path dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  auto [code, out, err] = run({"help"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);

  auto [code2, out2, err2] = run({});
  EXPECT_EQ(code2, 1);

  auto [code3, out3, err3] = run({"frobnicate"});
  EXPECT_EQ(code3, 1);
  EXPECT_NE(err3.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, ValidateGoodAndBadDocuments) {
  const std::string good = write_run_doc("good", 0.1);
  auto [code, out, err] = run({"validate", good});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("valid"), std::string::npos);

  // A structurally broken document: dangling relation endpoint.
  prov::Document bad;
  bad.add_activity("a");
  bad.used("a", "ghost");
  const std::string bad_path = (dir_ / "bad.provjson").string();
  ASSERT_TRUE(prov::write_prov_json_file(bad_path, bad).ok());
  auto [code2, out2, err2] = run({"validate", bad_path});
  EXPECT_EQ(code2, 2);
  EXPECT_NE(out2.find("problem"), std::string::npos);

  auto [code3, out3, err3] = run({"validate", "/nonexistent.provjson"});
  EXPECT_EQ(code3, 1);
}

TEST_F(CliTest, StatsPrintsCounts) {
  const std::string doc = write_run_doc("stats", 0.1);
  auto [code, out, err] = run({"stats", doc});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("entities"), std::string::npos);
  EXPECT_NE(out.find("wasGeneratedBy"), std::string::npos);
}

TEST_F(CliTest, ConvertToProvnAndDot) {
  const std::string doc = write_run_doc("conv", 0.1);
  auto [code, out, err] = run({"convert", doc, "--to", "provn"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("document"), std::string::npos);
  EXPECT_NE(out.find("activity("), std::string::npos);

  const std::string dot_path = (dir_ / "graph.dot").string();
  auto [code2, out2, err2] = run({"convert", doc, "--to", "dot", "--out", dot_path});
  EXPECT_EQ(code2, 0);
  EXPECT_TRUE(fs::exists(dot_path));

  auto [code3, out3, err3] = run({"convert", doc, "--to", "yaml"});
  EXPECT_EQ(code3, 1);
}

TEST_F(CliTest, DiffExitCodesReflectDifference) {
  const std::string a = write_run_doc("a", 0.1);
  const std::string b = write_run_doc("b", 0.2);
  auto [code, out, err] = run({"diff", a, b});
  EXPECT_EQ(code, 3);
  EXPECT_NE(out.find("lr"), std::string::npos);

  auto [code2, out2, err2] = run({"diff", a, a});
  EXPECT_EQ(code2, 0);
  EXPECT_NE(out2.find("identical"), std::string::npos);
}

TEST_F(CliTest, LineageWalksDocument) {
  const std::string doc = write_run_doc("lin", 0.1);
  auto [code, out, err] = run({"lineage", doc, "ex:artifact/ckpt", "--direction", "up"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("ex:lin"), std::string::npos);  // run activity reached

  auto [code2, out2, err2] = run({"lineage", doc, "ex:nope"});
  EXPECT_EQ(code2, 1);

  auto [code3, out3, err3] = run({"lineage", doc, "ex:artifact/ckpt", "--direction", "sideways"});
  EXPECT_EQ(code3, 1);
}

TEST_F(CliTest, IngestListGetWorkflow) {
  const std::string a = write_run_doc("run_a", 0.1);
  const std::string b = write_run_doc("run_b", 0.2);
  const std::string store = (dir_ / "store").string();

  auto [code, out, err] = run({"ingest", store, "runA=" + a, "runB=" + b});
  EXPECT_EQ(code, 0) << err;

  auto [code2, out2, err2] = run({"list", store});
  EXPECT_EQ(code2, 0);
  EXPECT_NE(out2.find("runA"), std::string::npos);
  EXPECT_NE(out2.find("runB"), std::string::npos);

  auto [code3, out3, err3] = run({"get", store, "runA"});
  EXPECT_EQ(code3, 0);
  EXPECT_NE(out3.find("prefix"), std::string::npos);

  auto [code4, out4, err4] = run({"get", store, "runA", "--element", "ex:param/lr"});
  EXPECT_EQ(code4, 0);
  EXPECT_NE(out4.find("provml:Parameter"), std::string::npos);

  auto [code5, out5, err5] = run({"get", store, "missing"});
  EXPECT_EQ(code5, 4);

  // Incremental ingest into an existing store keeps prior documents.
  auto [code6, out6, err6] = run({"ingest", store, "runC=" + a});
  EXPECT_EQ(code6, 0);
  auto [code7, out7, err7] = run({"list", store});
  EXPECT_NE(out7.find("runA"), std::string::npos);
  EXPECT_NE(out7.find("runC"), std::string::npos);
}

TEST_F(CliTest, PackUnpackRoundTrip) {
  const std::string doc = write_run_doc("pk", 0.1);
  const std::string packed = (dir_ / "doc.pmlc").string();
  const std::string restored = (dir_ / "restored.provjson").string();

  auto [code, out, err] = run({"pack", doc, packed, "--codec", "lzss"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_LT(fs::file_size(packed), fs::file_size(doc));

  auto [code2, out2, err2] = run({"unpack", packed, restored});
  EXPECT_EQ(code2, 0) << err2;
  EXPECT_EQ(io::read_file(restored).take(), io::read_file(doc).take());

  auto [code3, out3, err3] = run({"pack", doc, packed, "--codec", "nope"});
  EXPECT_EQ(code3, 1);
}


TEST_F(CliTest, ConstraintsCommand) {
  const std::string good = write_run_doc("cgood", 0.1);
  auto [code, out, err] = run({"constraints", good});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("no constraint violations"), std::string::npos);

  prov::Document bad;
  bad.add_entity("e");
  bad.was_derived_from("e", "e");
  const std::string bad_path = (dir_ / "cbad.provjson").string();
  ASSERT_TRUE(prov::write_prov_json_file(bad_path, bad).ok());
  auto [code2, out2, err2] = run({"constraints", bad_path});
  EXPECT_EQ(code2, 2);
  EXPECT_NE(out2.find("derivation-cycle"), std::string::npos);
}

TEST_F(CliTest, ConvertToXml) {
  const std::string doc = write_run_doc("xml", 0.1);
  auto [code, out, err] = run({"convert", doc, "--to", "xml"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("<prov:document"), std::string::npos);
}

TEST_F(CliTest, ConvertToTurtle) {
  const std::string doc = write_run_doc("ttl", 0.1);
  auto [code, out, err] = run({"convert", doc, "--to", "ttl"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("@prefix prov:"), std::string::npos);
  EXPECT_NE(out.find("a prov:Activity"), std::string::npos);
}

TEST_F(CliTest, QueryCommand) {
  const std::string a = write_run_doc("qa", 0.1);
  const std::string store = (dir_ / "qstore").string();
  ASSERT_EQ(std::get<0>(run({"ingest", store, "qa=" + a})), 0);

  auto [code, out, err] =
      run({"query", store, R"(MATCH (e:Entity {provml:name: "lr"}) RETURN e)"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("e=ex:param/lr"), std::string::npos);
  EXPECT_NE(out.find("1 row(s)"), std::string::npos);

  auto [code2, out2, err2] = run({"query", store, "MATCH bogus"});
  EXPECT_EQ(code2, 1);

  // A multi-row result prints the same whether it is pulled one row per
  // page or in one go.
  const std::string many = "MATCH (e:Entity) RETURN e";
  auto [code3, one_shot, err3] = run({"query", store, many});
  EXPECT_EQ(code3, 0) << err3;
  EXPECT_GT(std::count(one_shot.begin(), one_shot.end(), '\n'), 2) << one_shot;
  auto [code4, paged, err4] = run({"query", store, many, "--page-size", "1"});
  EXPECT_EQ(code4, 0) << err4;
  EXPECT_EQ(paged, one_shot);
}

TEST_F(CliTest, FitPredictReportWorkflow) {
  // Build a store with runs carrying the features fit/predict need.
  const std::string store = (dir_ / "astore").string();
  core::Experiment exp("cli_analysis");
  std::vector<std::string> ingest_args{"ingest", store};
  int idx = 0;
  for (const double params : {1e8, 6e8}) {
    for (const double samples : {1e6, 8e6}) {
      core::RunOptions opts;
      opts.provenance_dir = (dir_ / ("a" + std::to_string(idx))).string();
      opts.metric_store = "embedded";
      provml::core::Run& r = exp.start_run(opts, "ar" + std::to_string(idx));
      r.log_param("parameters", params);
      r.log_param("samples_seen", samples);
      const double loss =
          0.3 + 20.0 * std::pow(params, -0.3) + 100.0 * std::pow(samples, -0.4);
      r.log_param("final_loss", loss, core::IoRole::kOutput);
      EXPECT_TRUE(r.finish().ok());
      ingest_args.push_back("ar" + std::to_string(idx) + "=" + r.provenance_path());
      ++idx;
    }
  }
  ASSERT_EQ(std::get<0>(run(ingest_args)), 0);

  auto [code, out, err] = run({"fit", store});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("L(N, D) ="), std::string::npos);

  auto [code2, out2, err2] = run({"predict", store, "final_loss",
                                  "parameters=300000000", "samples_seen=4000000"});
  EXPECT_EQ(code2, 0) << err2;
  EXPECT_NE(out2.find("final_loss = "), std::string::npos);
  EXPECT_NE(out2.find("neighbors:"), std::string::npos);

  auto [code3, out3, err3] = run({"report", store});
  EXPECT_EQ(code3, 0);
  EXPECT_NE(out3.find("final_loss"), std::string::npos);
  EXPECT_NE(out3.find("ar0"), std::string::npos);

  auto [code4, out4, err4] = run({"predict", store, "final_loss", "notanumber=x"});
  EXPECT_EQ(code4, 1);
}

TEST_F(CliTest, CrateCommand) {
  const std::string doc = write_run_doc("crun", 0.1);
  const std::string run_dir = (dir_ / "crun").string();
  auto [code, out, err] = run({"crate", run_dir, "--name", "my experiment"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_TRUE(fs::exists(fs::path(run_dir) / "ro-crate-metadata.json"));

  auto [code2, out2, err2] = run({"crate", "/nonexistent/dir"});
  EXPECT_EQ(code2, 1);
}


TEST_F(CliTest, TimelineCommand) {
  const std::string doc = write_run_doc("tl", 0.1);
  auto [code, out, err] = run({"timeline", doc});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("ex:tl"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);

  prov::Document timeless;
  timeless.add_entity("e");
  const std::string p = (dir_ / "timeless.provjson").string();
  ASSERT_TRUE(prov::write_prov_json_file(p, timeless).ok());
  EXPECT_EQ(std::get<0>(run({"timeline", p})), 1);
}


TEST_F(CliTest, SubgraphCommand) {
  const std::string doc = write_run_doc("sg", 0.1);
  auto [code, out, err] = run({"subgraph", doc, "ex:artifact/ckpt", "--hops", "1"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("ex:artifact/ckpt"), std::string::npos);
  EXPECT_EQ(out.find("ex:param/lr"), std::string::npos);  // 2 hops away

  const std::string out_path = (dir_ / "sub.provjson").string();
  auto [code2, out2, err2] =
      run({"subgraph", doc, "ex:artifact/ckpt", "--out", out_path});
  EXPECT_EQ(code2, 0);
  EXPECT_TRUE(fs::exists(out_path));

  EXPECT_EQ(std::get<0>(run({"subgraph", doc, "ex:ghost"})), 1);
}

TEST_F(CliTest, ArgumentErrors) {
  EXPECT_EQ(std::get<0>(run({"validate"})), 1);
  EXPECT_EQ(std::get<0>(run({"diff", "only_one"})), 1);
  EXPECT_EQ(std::get<0>(run({"convert", "x"})), 1);          // missing --to
  EXPECT_EQ(std::get<0>(run({"ingest", "store", "no_equals"})), 1);
  EXPECT_EQ(std::get<0>(run({"list", "/nonexistent/store"})), 1);

  // Malformed or out-of-range numeric options on otherwise valid inputs.
  const std::string doc = write_run_doc("args", 0.1);
  const std::string store = (dir_ / "args_store").string();
  ASSERT_EQ(std::get<0>(run({"ingest", store, "args=" + doc})), 0);
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"lineage", doc, "ex:artifact/ckpt", "--depth", "abc"},
           {"lineage", doc, "ex:artifact/ckpt", "--depth", "-1"},
           {"subgraph", doc, "ex:artifact/ckpt", "--hops", "xyz"},
           {"subgraph", doc, "ex:artifact/ckpt", "--hops", "-1"},
           {"predict", store, "final_loss", "--k", "abc"},
           {"predict", store, "final_loss", "--k", "-1"},
       }) {
    auto [code, out, err] = run(args);
    EXPECT_EQ(code, 1) << args[0] << " " << args[3] << " " << args[4];
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << err;
  }

  // An option the command's usage line does not list is an error, not
  // silently ignored: a misspelling, a removed option, an option of
  // another command.
  for (const auto& [args, option] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"lineage", doc, "ex:artifact/ckpt", "--dpeth", "1"}, "--dpeth"},
           {{"serve", "--shards", "4"}, "--shards"},
           {{"serve", "--snapshot", (dir_ / "snap").string()}, "--snapshot"},
           {{"pack", doc, (dir_ / "packed").string(), "--codex", "lzss"}, "--codex"},
           {{"query", store, "MATCH (e:Entity) RETURN e", "--page-sise", "2"}, "--page-sise"},
           {{"lineage", doc, "ex:artifact/ckpt", "--explain"}, "--explain"},
       }) {
    auto [code, out, err] = run(args);
    EXPECT_EQ(code, 1) << args[0] << " " << option;
    EXPECT_EQ(err, "error: unknown option " + option + "\n");
    EXPECT_TRUE(out.empty()) << out;
  }
  // --explain stays a bare flag: the query after it is still positional.
  auto [code, out, err] = run({"query", store, "--explain", "MATCH (e:Entity) RETURN e"});
  EXPECT_EQ(code, 0) << err;
}

}  // namespace
}  // namespace provml::cli
