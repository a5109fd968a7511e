// Tests for the substitution index (src/analysis/substitution.*): building
// it folds the worst per-client outcome, the JSON document round-trips,
// and substitute() answers ranked queries from a deserialized index alone
// — no corpus rescan.
#include <gtest/gtest.h>

#include <string>

#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "frameworks/registry.hpp"

namespace wsx::analysis::predict {
namespace {

PredictOptions tiny_options() {
  PredictOptions options;
  catalog::JavaCatalogSpec java;
  java.plain_beans = 3;
  java.throwable_clean = 1;
  java.throwable_raw = 1;
  java.raw_generic_beans = 1;
  java.anytype_array_beans = 1;
  options.java_spec = java;
  catalog::DotNetCatalogSpec dotnet;
  dotnet.plain_types = 3;
  dotnet.dataset_plain = 1;
  dotnet.deep_nesting_pathological = 1;
  options.dotnet_spec = dotnet;
  options.jobs = 2;
  options.join_study = false;
  return options;
}

SubstitutionIndex tiny_index() { return build_index(predict_corpus(tiny_options())); }

TEST(SubstitutionIndex, BuildFoldsWorstOutcomePerClient) {
  const PredictReport report = predict_corpus(tiny_options());
  const SubstitutionIndex index = build_index(report);

  const auto clients = frameworks::make_clients();
  ASSERT_EQ(index.clients.size(), clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(index.clients[i], clients[i]->name());
  }
  ASSERT_EQ(index.entries.size(), report.services.size());
  for (std::size_t i = 0; i < index.entries.size(); ++i) {
    const IndexEntry& entry = index.entries[i];
    const ServicePredictionRecord& record = report.services[i];
    EXPECT_EQ(entry.fingerprint, record.prediction.fingerprint);
    ASSERT_EQ(entry.verdicts.size(), index.clients.size());
    for (std::size_t c = 0; c < entry.verdicts.size(); ++c) {
      const ClientPrediction& prediction = record.prediction.clients[c];
      if (prediction.any_error()) {
        EXPECT_EQ(entry.verdicts[c], Outcome::kError);
      } else if (prediction.generation.warning || prediction.compilation.warning) {
        EXPECT_EQ(entry.verdicts[c], Outcome::kWarning);
      } else {
        EXPECT_EQ(entry.verdicts[c], Outcome::kOk);
      }
    }
  }
}

TEST(SubstitutionIndex, JsonRoundTripsByteIdentically) {
  const SubstitutionIndex index = tiny_index();
  const std::string json = index_json(index);
  Result<SubstitutionIndex> parsed = index_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), index);
  EXPECT_EQ(index_json(parsed.value()), json);
}

TEST(SubstitutionIndex, RejectsMalformedDocuments) {
  EXPECT_FALSE(index_from_json("").ok());
  EXPECT_FALSE(index_from_json("[]").ok());
  EXPECT_FALSE(index_from_json("{\"version\":99,\"clients\":[],\"entries\":[]}").ok());
  // Verdict count must match the client roster.
  EXPECT_FALSE(index_from_json("{\"version\":1,\"clients\":[\"a\",\"b\"],\"entries\":["
                               "{\"server\":\"s\",\"service\":\"x\",\"type\":\"t\","
                               "\"fingerprint\":\"f\",\"operations\":[],"
                               "\"verdicts\":[\"ok\"]}]}")
                   .ok());
}

TEST(Substitute, AnswersFromDeserializedIndexOnly) {
  // Serialize, drop the in-memory index, and answer from the parsed copy —
  // the CLI's `substitute --index FILE` path.
  const std::string json = index_json(tiny_index());
  Result<SubstitutionIndex> index = index_from_json(json);
  ASSERT_TRUE(index.ok());

  // Find a target that fails somewhere for the first client so candidates
  // are meaningful; plain beans guarantee ok entries exist.
  SubstituteQuery query;
  query.client = index->clients.front();
  query.service = index->entries.front().server + "/" + index->entries.front().service;
  query.top = 3;
  Result<std::vector<Candidate>> candidates = substitute(index.value(), query);
  ASSERT_TRUE(candidates.ok()) << candidates.error().message;
  EXPECT_LE(candidates->size(), 3u);
  ASSERT_FALSE(candidates->empty());
  for (std::size_t i = 1; i < candidates->size(); ++i) {
    EXPECT_GE((*candidates)[i - 1].score, (*candidates)[i].score);
  }
  // Every candidate is predicted clean for the queried client.
  for (const Candidate& candidate : candidates.value()) {
    bool found = false;
    for (const IndexEntry& entry : index->entries) {
      if (entry.server == candidate.server && entry.service == candidate.service) {
        EXPECT_EQ(entry.verdicts.front(), Outcome::kOk) << candidate.service;
        found = true;
      }
    }
    EXPECT_TRUE(found) << candidate.service;
  }
  EXPECT_NE(format_candidates(query, candidates.value()).find("score"), std::string::npos);
}

TEST(Substitute, ClientMatchesCaseInsensitiveSubstring) {
  const SubstitutionIndex index = tiny_index();
  SubstituteQuery query;
  query.client = "gsoap";  // → "gSOAP Toolkit 2.8.16"
  query.service = index.entries.front().service;  // bare name form
  Result<std::vector<Candidate>> candidates = substitute(index, query);
  EXPECT_TRUE(candidates.ok()) << candidates.error().message;
}

TEST(Substitute, UnknownClientOrServiceIsAnError) {
  const SubstitutionIndex index = tiny_index();
  SubstituteQuery query;
  query.client = "no-such-tool";
  query.service = index.entries.front().service;
  Result<std::vector<Candidate>> unknown_client = substitute(index, query);
  ASSERT_FALSE(unknown_client.ok());
  EXPECT_EQ(unknown_client.error().code, "predict.unknown-client");

  query.client = index.clients.front();
  query.service = "NoSuchService";
  Result<std::vector<Candidate>> unknown_service = substitute(index, query);
  ASSERT_FALSE(unknown_service.ok());
  EXPECT_EQ(unknown_service.error().code, "predict.unknown-service");
}

TEST(Substitute, FingerprintMatchOutranksOperationOverlapAlone) {
  // Two candidate entries with identical operations; only one shares the
  // target's fingerprint. The sharer must rank first via the +0.25 bonus.
  SubstitutionIndex index;
  index.clients = {"tool"};
  const auto entry = [](const std::string& service, const std::string& fp) {
    IndexEntry e;
    e.server = "S";
    e.service = service;
    e.type_name = "t";
    e.fingerprint = fp;
    e.operations = {"echo"};
    e.verdicts = {Outcome::kOk};
    return e;
  };
  index.entries.push_back(entry("Target", "aaaa"));
  index.entries.push_back(entry("PlainTwin", "bbbb"));
  index.entries.push_back(entry("ShapeTwin", "aaaa"));

  SubstituteQuery query;
  query.client = "tool";
  query.service = "S/Target";
  Result<std::vector<Candidate>> candidates = substitute(index, query);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  EXPECT_EQ(candidates->front().service, "ShapeTwin");
  EXPECT_TRUE(candidates->front().fingerprint_match);
  EXPECT_DOUBLE_EQ(candidates->front().score, 1.25);
  EXPECT_EQ(candidates->back().service, "PlainTwin");
  EXPECT_DOUBLE_EQ(candidates->back().score, 1.0);
}

}  // namespace
}  // namespace wsx::analysis::predict
