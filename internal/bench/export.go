package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/atomicio"
)

// WriteCSV exports grid records as CSV — the equivalent of the paper's
// published raw-results files ("we provide both the raw results of all 10
// runs for all search times, datasets, and systems ... in our
// repository").
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	header := []string{
		"system", "dataset", "budget_s", "seed",
		"test_balanced_accuracy", "exec_kwh", "exec_time_s",
		"infer_kwh_per_instance", "infer_time_s_per_instance",
		"pipelines_evaluated", "attempts", "failure", "fallback",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("bench: writing csv header: %w", err)
	}
	for _, r := range records {
		row := []string{
			r.System,
			r.Dataset,
			strconv.FormatFloat(r.Budget.Seconds(), 'f', -1, 64),
			strconv.FormatUint(r.Seed, 10),
			strconv.FormatFloat(r.TestScore, 'g', -1, 64),
			strconv.FormatFloat(r.ExecKWh, 'g', -1, 64),
			strconv.FormatFloat(r.ExecTime.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(r.InferKWhPerInst, 'g', -1, 64),
			strconv.FormatFloat(r.InferTimePerInst.Seconds(), 'g', -1, 64),
			strconv.Itoa(r.Evaluated),
			strconv.Itoa(r.Attempts),
			string(r.Failure),
			strconv.FormatBool(r.Fallback),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("bench: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports grid records as a JSON array: byte for byte what a
// json.Encoder with SetIndent("", "  ") writes, rendered by
// appendRecordsJSON without reflection. Like the encoder it writes
// nothing when a record holds a NaN or infinite float.
func WriteJSON(w io.Writer, records []Record) error {
	// A grid record renders to about 320 bytes, so one buffer holds the
	// whole export and the writer sees a single Write.
	buf, err := appendRecordsJSON(make([]byte, 0, 352*len(records)+8), records)
	if err == nil {
		_, err = w.Write(buf)
	}
	if err != nil {
		return fmt.Errorf("bench: writing json: %w", err)
	}
	return nil
}

// appendRecordsJSON appends the indented JSON array of records and its
// trailing newline to dst: a nil slice is null, an empty one [], and
// Failure, Fallback and Attempts are omitted at their zero values, as
// their omitempty tags ask. A NaN or infinite float is refused, as
// encoding/json refuses it.
func appendRecordsJSON(dst []byte, records []Record) ([]byte, error) {
	if records == nil {
		return append(dst, "null\n"...), nil
	}
	if len(records) == 0 {
		return append(dst, "[]\n"...), nil
	}
	dst = append(dst, '[')
	for i := range records {
		r := &records[i]
		for _, f := range [...]float64{r.TestScore, r.ExecKWh, r.InferKWhPerInst} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, fmt.Errorf("record %d (%s on %s): unsupported value %v", i, r.System, r.Dataset, f)
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  {\n    \"System\": "...)
		dst = atomicio.AppendJSONString(dst, r.System)
		dst = append(dst, ",\n    \"Dataset\": "...)
		dst = atomicio.AppendJSONString(dst, r.Dataset)
		dst = append(dst, ",\n    \"Budget\": "...)
		dst = strconv.AppendInt(dst, int64(r.Budget), 10)
		dst = append(dst, ",\n    \"Seed\": "...)
		dst = strconv.AppendUint(dst, r.Seed, 10)
		dst = append(dst, ",\n    \"TestScore\": "...)
		dst = atomicio.AppendJSONFloat(dst, r.TestScore)
		dst = append(dst, ",\n    \"ExecKWh\": "...)
		dst = atomicio.AppendJSONFloat(dst, r.ExecKWh)
		dst = append(dst, ",\n    \"ExecTime\": "...)
		dst = strconv.AppendInt(dst, int64(r.ExecTime), 10)
		dst = append(dst, ",\n    \"InferKWhPerInst\": "...)
		dst = atomicio.AppendJSONFloat(dst, r.InferKWhPerInst)
		dst = append(dst, ",\n    \"InferTimePerInst\": "...)
		dst = strconv.AppendInt(dst, int64(r.InferTimePerInst), 10)
		dst = append(dst, ",\n    \"Evaluated\": "...)
		dst = strconv.AppendInt(dst, int64(r.Evaluated), 10)
		if r.Failure != "" {
			dst = append(dst, ",\n    \"Failure\": "...)
			dst = atomicio.AppendJSONString(dst, string(r.Failure))
		}
		if r.Fallback {
			dst = append(dst, ",\n    \"Fallback\": true"...)
		}
		if r.Attempts != 0 {
			dst = append(dst, ",\n    \"Attempts\": "...)
			dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
		}
		dst = append(dst, "\n  }"...)
	}
	return append(dst, "\n]\n"...), nil
}

// WriteCSVFile atomically exports records as CSV to path: a kill or
// write failure mid-export leaves any previous artifact intact instead
// of a torn file under the final name.
func WriteCSVFile(path string, records []Record) error {
	return atomicio.WriteFile(path, func(w io.Writer) error { return WriteCSV(w, records) })
}

// WriteJSONFile atomically exports records as JSON to path.
func WriteJSONFile(path string, records []Record) error {
	return atomicio.WriteFile(path, func(w io.Writer) error { return WriteJSON(w, records) })
}

// ReadJSON loads previously exported records, enabling offline
// re-aggregation and re-rendering without re-running the grid.
func ReadJSON(r io.Reader) ([]Record, error) {
	var records []Record
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return nil, fmt.Errorf("bench: reading json: %w", err)
	}
	return records, nil
}
