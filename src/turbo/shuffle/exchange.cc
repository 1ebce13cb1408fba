#include "turbo/shuffle/exchange.h"

#include <algorithm>
#include <cstring>

#include "exec/expression.h"
#include "exec/kernels.h"

namespace pixels {

namespace {

constexpr char kExchangeMagic[4] = {'P', 'X', 'S', 'H'};
constexpr size_t kFooterTailGuess = 4096;

Status CheckMagic(const uint8_t* p) {
  if (std::memcmp(p, kExchangeMagic, sizeof(kExchangeMagic)) != 0) {
    return Status::Corruption("exchange object: bad magic");
  }
  return Status::OK();
}

/// Encoding for one chunk: the forced one when it can represent the type,
/// else plain; heuristic choice when nothing is forced.
Encoding PickEncoding(const ColumnVector& col, int forced) {
  if (forced >= 0) {
    const auto e = static_cast<Encoding>(forced);
    return EncodingSupports(e, col.type()) ? e : Encoding::kPlain;
  }
  return ChooseEncoding(col);
}

}  // namespace

Result<std::vector<TablePtr>> HashPartitionTable(
    const Table& table, const std::vector<const Expr*>& key_exprs,
    int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (key_exprs.empty()) {
    return Status::InvalidArgument("hash partitioning needs key columns");
  }
  const size_t P = static_cast<size_t>(num_partitions);

  // Accumulate one output batch per partition; schema from the first
  // input batch (empty input => empty untyped partitions).
  std::vector<std::string> names;
  std::vector<std::vector<ColumnVectorPtr>> acc(P);
  bool typed = false;

  for (const auto& batch : table.batches()) {
    if (!typed) {
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        names.push_back(batch->name(c));
        for (size_t p = 0; p < P; ++p) {
          acc[p].push_back(MakeVector(batch->column(c)->type()));
        }
      }
      typed = true;
    }
    const size_t rows = batch->num_rows();
    if (rows == 0) continue;
    std::vector<ColumnVectorPtr> keys;
    keys.reserve(key_exprs.size());
    for (const Expr* e : key_exprs) {
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr key, EvaluateExpr(*e, *batch));
      keys.push_back(std::move(key));
    }
    const std::vector<uint64_t> hashes =
        HashKeyColumns(keys, rows, /*any_null=*/nullptr);
    for (size_t r = 0; r < rows; ++r) {
      const size_t p = static_cast<size_t>(hashes[r] % P);
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        acc[p][c]->AppendFrom(*batch->column(c), r);
      }
    }
  }

  std::vector<TablePtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    out[p] = std::make_shared<Table>();
    if (!typed) continue;
    auto b = std::make_shared<RowBatch>();
    for (size_t c = 0; c < names.size(); ++c) {
      b->AddColumn(names[c], acc[p][c]);
    }
    out[p]->AddBatch(std::move(b));
  }
  return out;
}

Result<ExchangeWriteInfo> WriteExchangeObject(
    Storage* storage, const std::string& path,
    const std::vector<TablePtr>& partitions, int forced_encoding) {
  if (storage == nullptr) {
    return Status::InvalidArgument("exchange write needs a storage");
  }
  // Schema from the first non-empty partition: names from its first batch.
  FileSchema schema;
  for (const auto& part : partitions) {
    if (part == nullptr || part->batches().empty()) continue;
    const RowBatch& first = *part->batches()[0];
    if (first.num_columns() == 0) continue;
    for (size_t c = 0; c < first.num_columns(); ++c) {
      schema.push_back(ColumnDef{first.name(c), first.column(c)->type()});
    }
    break;
  }

  ByteWriter body;
  body.PutBytes(kExchangeMagic, sizeof(kExchangeMagic));
  std::vector<uint64_t> part_rows(partitions.size(), 0);
  std::vector<std::vector<ExchangeChunk>> chunks(partitions.size());
  for (size_t p = 0; p < partitions.size(); ++p) {
    chunks[p].resize(schema.size());
    if (schema.empty()) continue;
    const Table* part = partitions[p].get();
    // Concatenate the partition's batches per column (a partition is
    // usually a single batch already — see HashPartitionTable).
    std::vector<ColumnVectorPtr> cols(schema.size());
    uint64_t rows = 0;
    if (part != nullptr) {
      for (const auto& b : part->batches()) rows += b->num_rows();
    }
    part_rows[p] = rows;
    if (rows == 0) continue;  // zero-length chunks, nothing encoded
    for (size_t c = 0; c < schema.size(); ++c) {
      if (part->batches().size() == 1) {
        cols[c] = part->batches()[0]->column(c);
      } else {
        auto merged = MakeVector(schema[c].type);
        merged->Reserve(rows);
        for (const auto& b : part->batches()) merged->AppendAll(*b->column(c));
        cols[c] = std::move(merged);
      }
    }
    for (size_t c = 0; c < schema.size(); ++c) {
      const Encoding enc = PickEncoding(*cols[c], forced_encoding);
      ByteWriter chunk;
      PIXELS_RETURN_NOT_OK(EncodeColumn(*cols[c], enc, &chunk));
      chunks[p][c].offset = body.size();
      chunks[p][c].length = chunk.size();
      chunks[p][c].encoding = enc;
      body.PutBytes(chunk.data().data(), chunk.size());
    }
  }

  ByteWriter footer;
  footer.PutU32(static_cast<uint32_t>(schema.size()));
  for (const auto& def : schema) {
    footer.PutString(def.name);
    footer.PutU8(static_cast<uint8_t>(def.type));
  }
  footer.PutU32(static_cast<uint32_t>(partitions.size()));
  for (size_t p = 0; p < partitions.size(); ++p) {
    footer.PutU64(part_rows[p]);
    for (const auto& ch : chunks[p]) {
      footer.PutU64(ch.offset);
      footer.PutU64(ch.length);
      footer.PutU8(static_cast<uint8_t>(ch.encoding));
    }
  }
  const uint32_t footer_len = static_cast<uint32_t>(footer.size());
  body.PutBytes(footer.data().data(), footer.size());
  body.PutU32(footer_len);
  body.PutBytes(kExchangeMagic, sizeof(kExchangeMagic));

  ExchangeWriteInfo info;
  info.bytes_written = body.size();
  info.num_partitions = partitions.size();
  PIXELS_RETURN_NOT_OK(storage->Write(path, body.data()));
  return info;
}

namespace {

Result<ExchangeFooter> ParseFooter(ByteReader* in, size_t object_bytes) {
  ExchangeFooter out;
  out.object_bytes = object_bytes;
  PIXELS_ASSIGN_OR_RETURN(const uint32_t ncols, in->GetU32());
  for (uint32_t c = 0; c < ncols; ++c) {
    PIXELS_ASSIGN_OR_RETURN(std::string name, in->GetString());
    PIXELS_ASSIGN_OR_RETURN(const uint8_t type, in->GetU8());
    out.schema.push_back(ColumnDef{std::move(name), static_cast<TypeId>(type)});
  }
  PIXELS_ASSIGN_OR_RETURN(const uint32_t nparts, in->GetU32());
  out.partition_rows.resize(nparts, 0);
  out.chunks.resize(nparts);
  for (uint32_t p = 0; p < nparts; ++p) {
    PIXELS_ASSIGN_OR_RETURN(out.partition_rows[p], in->GetU64());
    out.chunks[p].resize(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      ExchangeChunk& ch = out.chunks[p][c];
      PIXELS_ASSIGN_OR_RETURN(ch.offset, in->GetU64());
      PIXELS_ASSIGN_OR_RETURN(ch.length, in->GetU64());
      PIXELS_ASSIGN_OR_RETURN(const uint8_t enc, in->GetU8());
      ch.encoding = static_cast<Encoding>(enc);
    }
  }
  return out;
}

}  // namespace

Result<ExchangeFooter> ReadExchangeFooter(Storage* storage,
                                          const std::string& path) {
  PIXELS_ASSIGN_OR_RETURN(const uint64_t size, storage->Size(path));
  if (size < sizeof(kExchangeMagic) * 2 + sizeof(uint32_t)) {
    return Status::Corruption("exchange object too small: " + path);
  }
  const uint64_t tail_len = std::min<uint64_t>(size, kFooterTailGuess);
  PIXELS_ASSIGN_OR_RETURN(std::vector<uint8_t> tail,
                          storage->ReadRange(path, size - tail_len, tail_len));
  PIXELS_RETURN_NOT_OK(CheckMagic(tail.data() + tail.size() - 4));
  uint32_t footer_len = 0;
  std::memcpy(&footer_len, tail.data() + tail.size() - 8, sizeof(footer_len));
  const uint64_t footer_span = static_cast<uint64_t>(footer_len) + 8;
  if (footer_span > size - sizeof(kExchangeMagic)) {
    return Status::Corruption("exchange object: footer length out of range");
  }
  if (footer_span <= tail_len) {
    ByteReader in(tail.data() + tail.size() - footer_span, footer_len);
    return ParseFooter(&in, size);
  }
  // Oversized footer (thousands of partitions): one more exact GET.
  PIXELS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> buf,
      storage->ReadRange(path, size - footer_span, footer_len));
  ByteReader in(buf);
  return ParseFooter(&in, size);
}

Result<RowBatchPtr> ReadExchangePartition(Storage* storage,
                                          const std::string& path,
                                          const ExchangeFooter& footer,
                                          size_t p, uint64_t* bytes_read) {
  if (p >= footer.num_partitions()) {
    return Status::InvalidArgument("exchange partition out of range");
  }
  auto batch = std::make_shared<RowBatch>();
  if (footer.schema.empty()) return batch;  // empty producer output
  const uint64_t rows = footer.partition_rows[p];
  // One combined read: per-column ranges are contiguous in the object, so
  // they coalesce into a single underlying GET.
  std::vector<ByteRange> ranges;
  ranges.reserve(footer.schema.size());
  for (const auto& ch : footer.chunks[p]) {
    ranges.push_back(ByteRange{ch.offset, ch.length});
  }
  PIXELS_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> bufs,
                          storage->ReadRanges(path, ranges));
  for (size_t c = 0; c < footer.schema.size(); ++c) {
    ColumnVectorPtr col;
    if (rows == 0) {
      col = MakeVector(footer.schema[c].type);
    } else {
      ByteReader in(bufs[c]);
      PIXELS_ASSIGN_OR_RETURN(
          col, DecodeColumn(footer.schema[c].type,
                            footer.chunks[p][c].encoding, &in, rows));
    }
    if (bytes_read != nullptr) *bytes_read += footer.chunks[p][c].length;
    batch->AddColumn(footer.schema[c].name, std::move(col));
  }
  return batch;
}

size_t SweepExchangePrefix(Storage* storage, const std::string& prefix) {
  if (storage == nullptr || prefix.empty()) return 0;
  auto paths = storage->List(prefix);
  if (!paths.ok()) return 0;
  size_t removed = 0;
  for (const auto& path : *paths) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      if (storage->Delete(path).ok() || !storage->Exists(path)) {
        ++removed;
        break;
      }
    }
  }
  return removed;
}

}  // namespace pixels
